(** Receiver churn: dynamic joins and departures.

    The paper's architecture has receivers registering with the
    controller as they come and go ("potential recipients of multicast
    traffic register themselves with the controller agent"); its
    evaluation, however, starts every receiver at t = 0. This scenario
    exercises the dynamic case on Topology A: receivers join staggered,
    some depart mid-run, and we measure how fast newcomers climb to
    their optimum and how much an established receiver is disturbed by
    its siblings' arrivals. *)

type receiver_report = {
  node : Net.Addr.node_id;
  joined_at_s : float;
  left_at_s : float option;
  optimal : int;
  reach_s : float option;
      (** seconds from join to first reaching the optimum *)
  disruptions : int;
      (** downward moves below the optimum after having reached it *)
  final_level : int;
}

type outcome = {
  receivers : receiver_report list;
  mean_reach_s : float option;
      (** over receivers that reached their optimum; [None] if none did *)
  reached : int;
  total : int;
}

val run :
  ?receivers_per_set:int ->
  ?join_gap_s:float ->
  ?leave_half_at_s:float ->
  ?duration:Engine.Time.t ->
  ?seed:int64 ->
  unit ->
  outcome
(** Runs a CBR source. Defaults: 4 receivers per set joining
    [join_gap_s] = 20 s apart (alternating between the fast and slow
    branches), the odd-indexed half departing at [leave_half_at_s] =
    400 s, 600 s, seed 42. A receiver whose join would fall at or after
    [duration] never joins and is left out of the report. *)
