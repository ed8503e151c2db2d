(** Back-off timers for dropped layers.

    When a drop decision is taken at a node, the layer just dropped is
    put on back-off for a random interval so no receiver in that node's
    subtree immediately re-subscribes it (the paper credits this random
    back-off for the variance in its stability plots). A timer is keyed
    by (session, node, layer); a leaf asks whether a layer is backed off
    *anywhere on its path to the source*. *)

type t

val create : params:Params.t -> rng:Engine.Prng.t -> t

val arm :
  t -> session:int -> node:Net.Addr.node_id -> layer:int -> now:Engine.Time.t -> unit
(** Starts (or restarts) a timer of random length in
    [backoff_min, backoff_max]. *)

val active :
  t -> session:int -> node:Net.Addr.node_id -> layer:int -> now:Engine.Time.t -> bool

val blocked_on_path :
  t -> session:int -> tree:Tree.t -> leaf:int -> layer:int -> now:Engine.Time.t -> bool
(** True when the layer is backed off at the leaf or any of its
    ancestors in the session tree. [leaf] is a {!Tree} index. *)

val clear : t -> unit
(** Drops all timers (tests). *)

val clear_session : t -> session:int -> unit
(** Drops every timer of one session. Long-running controllers call this
    on session teardown so timers for departed sessions do not accumulate
    forever. *)
