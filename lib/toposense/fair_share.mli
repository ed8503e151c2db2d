(** Stage 4: sharing estimated link capacity among competing sessions.

    Min-max fairness does not exist for discrete layers (Sarkar &
    Tassiulas), so the paper uses a proportional rule. For each link with
    a finite capacity estimate, first compute each session's *maximum
    possible demand* there: the most bandwidth it could use if every
    other session received only its base layer (top-down pass clipping by
    the per-link headroom, then a bottom-up max over children, expressed
    as whole layers). With x_i the maximum possible demand of session i
    and B the estimated capacity, session i's share of the link is

      x_i · B / Σ_j x_j

    floored at the session's base-layer rate (every session is assumed to
    get at least the base layer). Links without a finite estimate impose
    no cap. *)

type session_ctx = {
  id : int;
  layering : Traffic.Layering.t;
  tree : Tree.t;
  capacity : int -> float;
      (** the stage-2 estimate of the edge into tree index [i], for
          [i >= 1] ([infinity] = unknown) *)
  caps : float array;
      (** filled by {!compute}: entry [i], for [i] below the tree's
          size, is the bandwidth the session may push across the edge
          into node [i]. Longer arrays are fine; entries past the size
          are not touched. *)
}

val compute : session_ctx list -> unit
(** Fills every session's [caps], indexed as that session's {!Tree}:
    its fair share on an estimated shared edge, the raw estimate on an
    estimated unshared edge, [infinity] otherwise (and at the source).
    Two sessions share an edge when their trees hold the same
    {!Tree.edge}. Sums over the sessions crossing an edge run newest
    session (last in the list) first. Only edges with a finite estimate
    are looked up by key. *)
