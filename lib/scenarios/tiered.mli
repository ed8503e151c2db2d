(** The paper's tiered Internet model (Fig. 2) with per-domain control
    (Fig. 3).

    Generates a hierarchy — a national core, regional ISPs, local ISPs,
    and institutional last hops — with bandwidth falling toward the edge
    so the bottlenecks sit in the last mile, exactly the regime TopoSense
    targets. Each regional subtree is one administrative domain with its
    own controller agent stationed at the regional node; controllers are
    unaware of each other (subtree independence).

    Institution (receiver) last-hop bandwidths are drawn from a small set
    of realistic capacities, giving every receiver its own optimum. *)

type config = {
  regions : int;
  sessions : int;
      (** concurrent layered sessions; every institution subscribes to
          all of them, so regional and local links carry competing
          sessions and the stage-4 fair share is exercised across
          domains *)
}
(** Every region holds 2 locals of 3 institutions each, behind a
    100 Mbps core, 20 Mbps regional and 3 Mbps local links; last hops
    are drawn from {64, 150, 300, 600, 1200} Kbps. *)

val default_config : config
(** 3 regions (18 receivers), 1 session. *)

val generate : ?config:config -> seed:int64 -> unit -> Builders.world
(** Deterministic for a given seed. One session per configured source,
    all rooted at core stubs, every institution a receiver of every
    session; one domain per region, whose first member is the regional
    ISP node, where its controller sits. *)

type control =
  | Global  (** one controller for the whole tree, at the source *)
  | Per_domain  (** one controller per regional domain (the paper's model) *)

val control_name : control -> string
(** ["global"] or ["per-domain"], as the CLI prints it. *)

type receiver_outcome = {
  session : int;
  node : Net.Addr.node_id;
  domain : int;  (** the receiver's domain id; -1 when outside any *)
  optimal : int;
  final_level : int;
  deviation : float;  (** relative deviation over the whole run *)
  changes : int;
}

type outcome = {
  receivers : receiver_outcome list;
  mean_deviation : float;
  controllers : int;
}

val run :
  world:Builders.world ->
  control:control ->
  ?traffic:Experiment.traffic ->
  ?duration:Engine.Time.t ->
  ?seed:int64 ->
  unit ->
  outcome
(** Full stack on the generated world: one layered session from the
    source to every institution, controllers per [control], receiver
    agents everywhere, all on {!Toposense.Params.default}. Defaults:
    VBR P=3, 600 s, seed 42. *)
