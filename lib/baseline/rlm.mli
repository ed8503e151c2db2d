(** A receiver-driven layered multicast (RLM) baseline.

    McCanne, Jacobson & Vetterli's receiver-driven scheme, against which
    the paper positions TopoSense: each receiver independently runs *join
    experiments* — add the next layer when a randomized join timer fires,
    watch for loss during a detection window, and on a failed experiment
    drop back and multiplicatively increase that layer's join timer.
    Sustained loss outside an experiment sheds the top layer. There is no
    controller, no topology information, and (in this implementation) no
    shared learning, so concurrent experiments by different receivers can
    confuse one another — exactly the coordination failure TopoSense's
    ablation benches measure. *)

type t

val create :
  network:Net.Network.t ->
  router:Multicast.Router.t ->
  node:Net.Addr.node_id ->
  session:Traffic.Session.t ->
  unit ->
  t
(** Installs the packet handler on [node] and joins at level 1. Join
    experiments are judged over a 2 s detection window; join timers
    start at 5 s and grow 2× per failure up to 120 s; loss above 0.15 is
    congestion. *)

val start : t -> unit
(** Starts the receiver's join experiments; it runs until the run ends.
    Idempotent. *)

val level : t -> int
val changes : t -> (Engine.Time.t * int) list
(** Subscription changes, oldest first. *)

val last_window_loss : t -> float
(** Loss rate over the most recent 1 s accounting window. *)

val failed_experiments : t -> int
val successful_experiments : t -> int
