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
}

type t

val compute :
  sessions:session_ctx list ->
  capacity:(edge:(Net.Addr.node_id * Net.Addr.node_id) -> float) ->
  t

val cap_bps :
  t -> session:int -> edge:(Net.Addr.node_id * Net.Addr.node_id) -> float
(** The bandwidth session [session] may push across [edge]: its fair
    share on estimated shared links, the raw estimate on estimated
    unshared links, [infinity] otherwise. *)
