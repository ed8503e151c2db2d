(** The TopoSense algorithm: the per-interval pipeline.

    One [step] per interval takes, for every session in the domain, the
    (possibly stale) session tree and the fresh receiver measurements,
    and runs them through congestion states ({!Congestion}), shared-link
    capacity ({!Capacity}), fair shares ({!Fair_share}) and demand and
    supply ({!Subscription}) to a subscription-level prescription for
    every member receiver the caller names. The paper's stage 3, path
    bottlenecks, has no pass of its own: {!Fair_share}'s top-down
    headroom pass and {!Subscription}'s top-down supply pass compute it
    where it is used. Every stage keeps its per-node values in arrays
    indexed by {!Tree}'s BFS numbering.
    All controller-side state that persists across intervals — capacity
    estimates, congestion/bytes/supply histories, back-off timers — lives
    here, so the surrounding {!Controller} stays a thin I/O shim and this
    module is directly unit-testable.

    Each session also keeps a view across intervals: the {!Capacity}
    entry of every tree edge, the {!Subscription} state of every tree
    node, and the stage arrays, all indexed by the tree's numbering. A
    step whose tree has {!Tree.same_numbering} with the session's last
    one reuses the view, so an unchanged tree is neither re-hashed nor
    re-allocated; any other tree gets a new view, built exactly as on the
    session's first interval. Both paths give the same prescriptions and
    estimates. *)

type t

val create : params:Params.t -> rng:Engine.Prng.t -> t

type session_input = {
  id : int;
  layering : Traffic.Layering.t;
  tree : Tree.t;  (** from the discovery snapshot *)
  measures : (Net.Addr.node_id * (float * int)) list;
      (** per member leaf: (loss rate, bytes received) over the interval *)
  levels : (Net.Addr.node_id * int) list;
      (** current subscription levels (freshest known) *)
  recipients : Net.Addr.node_id list;
      (** the receivers to prescribe to: stage 5 ends in a prescription
          for each of these that is a member leaf of [tree], and for no
          one else. Stages 1–4 still cover the whole tree, because a
          silent member's history feeds its ancestors' demands, and its
          own once it reports. *)
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
    receiver). A prescription for a receiver does not depend on which
    other receivers are recipients. Where [measures] or [levels] list a
    node twice, the first entry counts. Pass each session's tree from
    {!Tree.of_snapshot} with the session's previous tree as [prev] to
    reuse its view; a session listed twice in one step gets a second
    view for that step only. *)

val capacity_estimate : t -> edge:int -> float
(** Current stage-2 estimate of an edge keyed by {!Tree.edge}
    ([infinity] = unknown). Test-only: the algorithm tests read stage 2's
    output through it. *)
