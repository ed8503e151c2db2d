(** Stage 1: congestion states.

    Loss rates are only known at leaf receivers; an internal node's loss
    is the *minimum* of its children's (the paper's conservative choice: a
    parent need only cover the least-demanding child). States are then
    assigned: a leaf is congested when its loss exceeds
    {!Params.p_threshold}; an internal node when all children exceed the
    threshold and at least {!Params.eta_similar} of them sit within
    {!Params.similar_band} of the mean child loss
    — correlated loss across siblings is the signature of a shared
    bottleneck just above them. Finally congestion is inherited downward:
    every descendant of a congested node is marked congested.

    The stage also records, per node, the maximum bytes received by any
    receiver in the node's subtree — stage 2's estimate of the traffic
    that crossed the node's inbound link. *)

type t = {
  congested : bool array;
  loss : float array;  (** leaf: reported; internal: min over children *)
  max_bytes : int array;
      (** max bytes received by any receiver in the subtree this window *)
  self_congested : bool array;
      (** congested by its own evidence, before parent inheritance *)
}
(** The verdicts, one entry per node, indexed as the {!Tree}. The
    arrays may be longer than the tree: entries past its size are
    neither read nor written. *)

val create : int -> t
(** Verdict arrays for trees of up to [n] nodes, every entry zero or
    false. The algorithm keeps one per session tree and reuses it every
    interval. *)

val compute : tree:Tree.t -> t -> unit
(** Computes the verdicts in place. On entry, [loss.(i)] and
    [max_bytes.(i)] hold leaf [i]'s loss rate and bytes received this
    interval (a leaf without a report yet reads 0.0 and 0: lossless,
    with zero bytes); internal nodes' entries of both are ignored. On
    return every array holds the verdicts for indices [0] to
    [Tree.size tree - 1]. *)
