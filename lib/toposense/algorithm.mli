(** The TopoSense algorithm: the per-interval pipeline.

    One [step] per interval takes, for every session in the domain, the
    (possibly stale) session tree and the fresh receiver measurements,
    and runs them through congestion states ({!Congestion}), shared-link
    capacity ({!Capacity}), fair shares ({!Fair_share}) and demand and
    supply ({!Subscription}) to a subscription-level prescription for
    every member receiver. The paper's stage 3, path bottlenecks, has no
    pass of its own: {!Fair_share}'s top-down headroom pass and
    {!Subscription}'s top-down supply pass compute it where it is used.
    All controller-side state that persists across intervals — capacity
    estimates, congestion/bytes/supply histories, back-off timers — lives
    here, so the surrounding {!Controller} stays a thin I/O shim and this
    module is directly unit-testable. *)

type t

val create : params:Params.t -> rng:Engine.Prng.t -> t

val params : t -> Params.t

type session_input = {
  id : int;
  layering : Traffic.Layering.t;
  tree : Tree.t;  (** from the discovery snapshot *)
  measures : (Net.Addr.node_id * (float * int)) list;
      (** per member leaf: (loss rate, bytes received) over the interval *)
  levels : (Net.Addr.node_id * int) list;
      (** current subscription levels (freshest known) *)
  may_add : Net.Addr.node_id -> bool;
      (** whether a member may probe one layer up this interval (false
          while its last level change is younger than the feedback
          loop) *)
  frozen : Net.Addr.node_id -> bool;
      (** receivers whose reports were flagged settling: their reported
          loss is still congestion/capacity evidence, but they must not
          be asked to reduce again for it *)
}

type prescription = {
  session : int;
  receiver : Net.Addr.node_id;
  level : int;
}

val step : t -> now:Engine.Time.t -> session_input list -> prescription list
(** Runs stages 1–5 once. Prescriptions are sorted by (session,
    receiver). *)

val remove_session : t -> session:int -> unit
(** Session teardown: prunes the back-off timers and stage-5 per-node
    histories of one session. Capacity estimates are per physical edge,
    shared across sessions, and are kept. *)

val capacity_estimate :
  t -> edge:(Net.Addr.node_id * Net.Addr.node_id) -> float
(** Current stage-2 estimate (diagnostics; [infinity] = unknown). *)
