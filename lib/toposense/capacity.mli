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

type link_obs = {
  sessions : (int * float * int) list;
      (** (session, loss at the link's destination for that session,
          bytes crossing for that session) — bytes are the subtree
          byte-maximum computed by stage 1 *)
  dest_internal : bool;
      (** the destination node forwards to others in at least one
          crossing session; single-session last-hop edges are never
          pinned, because a lone receiver's bytes measure its
          subscription, not the link — but several sessions losing
          together at one leaf do measure it (see the implementation) *)
  dest_self_congested : bool;
      (** stage 1 found sibling-correlated loss at the destination in
          some crossing session — the strongest evidence that THIS edge
          is the bottleneck; without it, a single-session loss pins
          nothing (multi-session agreement is required) *)
}

val observe : t -> edge:int -> interval_s:float -> link_obs -> unit
(** Feed one interval's evidence for one physical edge, keyed by
    {!Tree.edge}. Must be called once per edge per interval (it also
    applies growth/reset). *)

val estimate_bps : t -> edge:int -> float
(** Current capacity estimate; [infinity] when unknown. *)

val known_edges : t -> int list
(** Edges with a finite estimate, ascending: by parent, then child. *)

val reset : t -> edge:int -> unit
(** Force an edge back to unknown (used by tests and ablations). *)
