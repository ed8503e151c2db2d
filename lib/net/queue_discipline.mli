(** Queueing disciplines.

    The paper's experiments use drop-tail everywhere; RED and priority
    dropping are provided for the ablation benches — the paper's related
    work (Bajaj, Breslau & Shenker) compares uniform and priority
    dropping for exactly this layered-video setting.

    - {b Drop-tail}: FIFO, arrivals beyond [limit] are rejected.
    - {b RED} (random early detection): an EWMA of the queue length
      drives a random early-drop probability between [min_th] and
      [max_th]; beyond [max_th] every arrival drops. Marking is not
      modelled (media flows here do not react to ECN).
    - {b Priority}: FIFO, but when full the *least important* packet is
      dropped — the queued or arriving media packet of the highest
      enhancement layer; control packets are most important. Layered
      video keeps its base layers under overload. *)

type spec =
  | Drop_tail of { limit : int }
  | Red of {
      limit : int;
      min_th : float;  (** avg queue length where early drop starts *)
      max_th : float;  (** avg queue length where drop prob reaches max_p *)
      max_p : float;
      wq : float;  (** EWMA weight for the average queue length *)
    }
  | Priority of { limit : int }

val default_red : limit:int -> spec
(** Floyd & Jacobson defaults scaled to [limit]: min 25 %, max 75 % of
    the limit, max_p 0.1, wq 0.002. *)

val validate_spec : spec -> (unit, string) result

type t

val create :
  ?clock:(unit -> float) ->
  ?service_time_s:float ->
  ?rng:Engine.Prng.t ->
  spec ->
  arena:Packet.arena ->
  t
(** @raise Invalid_argument on an invalid spec, non-positive
    [service_time_s], or a RED spec without [rng]. The [arena] resolves
    packet importance and frees priority-evicted packets.

    [rng], [clock] and [service_time_s] are RED's alone, and only a RED
    queue keeps them. [rng] drives the random early drops. [clock]
    (seconds, monotone within a run) and [service_time_s] (the typical
    packet transmission time on the outgoing link) drive the idle decay:
    after the queue sits empty for [d] seconds the averaged queue length
    is multiplied by [(1-wq)^(d / service_time_s)] on the next arrival,
    per Floyd & Jacobson. The default clock is constant, which disables
    the decay (seed behaviour). *)

val spec : t -> spec

val offer : t -> Packet.t -> bool
(** Enqueue if the discipline admits the packet; [false] counts a drop
    and leaves ownership (and the duty to free) with the caller. Under
    [Priority] an admitted arrival can instead evict a queued
    lower-priority packet (the eviction is counted as the drop and the
    evicted packet is freed here). *)

val poll : t -> Packet.t
(** Removes and returns the head of the queue ({!Packet.none} when
    empty); ownership transfers to the caller. *)

val length : t -> int
val drops : t -> int
(** Total packets dropped (rejected arrivals and priority evictions). *)

val early_drops : t -> int
(** RED only: drops taken before the queue was full. 0 otherwise. *)
