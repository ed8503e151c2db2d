(** Stage 2: shared-link capacity estimation.

    The controller has no access to link state, so capacities start as
    infinite and are only pinned when the evidence is unambiguous: the
    link's destination node shows loss above threshold *for every session
    crossing the link* (one clean session means some other session's
    bottleneck is further downstream, paper Section III). The estimate is
    then the bits observed crossing the link during the interval.

    Estimates are inflated a little every interval (reported bytes can
    lag actual transmissions) and reset to infinity every
    [capacity_reset_intervals] so that transient flows or downstream
    bottlenecks cannot poison the estimate forever — the paper leans on
    this reset for its Fig. 9 oversubscription excursions. *)

type t

val create : params:Params.t -> t

type entry
(** One physical edge's estimate and its evidence for the interval
    under way. An entry lives as long as [t], so a handle taken once
    serves every later interval: the algorithm keeps one per edge of
    each session tree and does not look the edge up again until the
    tree changes shape. *)

val entry : t -> edge:int -> entry
(** The entry of an edge keyed by {!Tree.edge}, created (estimate
    unknown) on first use. *)

val pool :
  entry ->
  session:int ->
  loss:float ->
  bytes:int ->
  internal:bool ->
  self_congested:bool ->
  unit
(** Adds one crossing session's evidence for this interval:
    - [loss], the loss at the link's destination for that session, and
      [bytes], the bytes crossing for it (the subtree byte-maximum
      computed by stage 1);
    - [internal]: the destination forwards to others in this session.
      Single-session last-hop edges are never pinned, because a lone
      receiver's bytes measure its subscription, not the link; several
      sessions losing together at one leaf do measure it (see the
      implementation);
    - [self_congested]: stage 1 found sibling-correlated loss at the
      destination in this session (read only when [internal]), the
      strongest evidence that THIS edge is the bottleneck. Without it
      in any session, a single-session loss pins nothing:
      multi-session agreement is required.

    Sums over the pooled sessions run from the last pooled to the
    first. *)

val observe_pooled : t -> entry -> interval_s:float -> unit
(** Feeds the evidence pooled on the entry since its last observation
    to the estimate as one interval's observation and clears it; a
    no-op when nothing was pooled. Must run once per edge per interval
    that pooled evidence (it also applies growth/reset). *)

val estimate : entry -> float
(** Current capacity estimate in bits/s; [infinity] when unknown. *)

val estimate_bps : t -> edge:int -> float
(** {!estimate} of an edge by key, without creating its entry. *)

val known_edges : t -> int list
(** Edges with a finite estimate, ascending: by parent, then child.
    Test-only: the capacity tests check which edges got an estimate. *)
