(** One world assembly: the stack every scenario runs on.

    {!build} wires the paper's shape (Figs. 2–3) — layered sources,
    receivers, and the controller agent each receiver reports to — from
    a {!Builders.spec} plus the few choices the scenarios differ in, and
    returns every handle. Each scenario keeps only its own schedule and
    its own measurement.

    The build order fixes the order of same-instant events: simulator,
    network, eager routing, router, discovery, sessions (all registered
    with discovery before any source starts, unless the world has no
    control plane), sources in session order, control plane, agents,
    passive joins. *)

type control =
  | Flat of { probe : bool }
      (** one controller at [spec.controller_node]; with [probe], fed by
          in-band {!Toposense.Probe_discovery} *)
  | Per_domain  (** one controller at each domain's first member *)
  | Federated of { rehome : bool }
      (** the per-domain controllers, summarizing to a
          {!Toposense.Federation} parent at [spec.controller_node] built
          before them; [rehome] adds a flat controller there, built after
          them, that degraded domains fail over to and whose
          prescriptions the parent counts as re-homed *)
  | No_control
      (** no controller; discovery captures no session *)

type agents =
  | Every_receiver
      (** one agent per distinct receiver, in the order the sessions
          first list them, at level 1 in every session that lists it *)
  | Sampled of { active_domains : int; active_per_domain : int }
      (** agents at the first [active_per_domain] receivers after the
          controller node of the first [active_domains] domains; every
          other receiver joins its sessions' base layer passively *)
  | No_agents

type t = {
  sim : Engine.Sim.t;
  network : Net.Network.t;
  router : Multicast.Router.t;
  discovery : Discovery.Service.t;
  params : Toposense.Params.t;
  sessions : Traffic.Session.t list;  (** in [spec.sessions]' order *)
  parent : Toposense.Federation.parent option;
  controllers : (Net.Addr.node_id * Toposense.Controller.t) list;
      (** the per-domain controllers and their nodes, in domain order *)
  flat : Toposense.Controller.t option;
      (** the controller at [spec.controller_node] *)
  agents : (Net.Addr.node_id * Toposense.Receiver_agent.t) list;
  faults : Net.Faults.t Lazy.t;
      (** the world's one fault injector, made when first forced, so a
          world that injects nothing allocates none. Its crash observer
          wipes a crashed node's multicast state and stops the
          controllers and agents {!build} placed there; recovery
          rebuilds the state and restarts them. Controllers and agents
          added later ({!add_controller}, {!add_agent}) are not
          crash-managed: no caller crashes their nodes. *)
}

val build :
  spec:Builders.spec ->
  ?domains:(int * Net.Addr.node_id list) list ->
  ?seed:int64 ->
  ?params:Toposense.Params.t ->
  ?eager_routing:bool ->
  ?leave_latency:Engine.Time.span ->
  ?expedited_leave:bool ->
  ?discovery_period:Engine.Time.span ->
  ?discovery_history:int ->
  ?traffic:Traffic.Source.kind ->
  ?source_label:(int -> string) ->
  control:control ->
  agents:agents ->
  unit ->
  t
(** [domains] (default none) are {!Builders.world}'s. An agent reports
    to its domain's controller under [Per_domain] and [Federated], and
    to [spec.controller_node] otherwise. Defaults: seed 42,
    {!Toposense.Params.default}, lazy routing ([eager_routing]
    materializes every column before the router is built), the
    router's and the discovery service's own defaults, CBR sources, and
    session [i]'s source drawing its phase from the stream
    [source_label i] (["source-i"]).
    @raise Invalid_argument before building anything on invalid
    [params] or [Sampled] knobs; the message names the field or knob. *)

val add_agent :
  t -> node:Net.Addr.node_id -> controller:Net.Addr.node_id ->
  Toposense.Receiver_agent.t
(** An agent at [node] reporting to [controller], at level 1 in every
    session, started: for receivers that join mid-run. *)

val add_controller : t -> node:Net.Addr.node_id -> Toposense.Controller.t
(** A controller at [node] managing every session, not started: a cold
    standby that {!Toposense.Controller.start} brings up. *)

val is_control : Net.Packet.arena -> Net.Packet.t -> bool
(** The classifier handed to {!Net.Faults.set_control_plane} (partially
    applied to the network's arena): receiver reports, controller
    suggestions, protocol ACKs, discovery probe traffic and the
    federation's {!Toposense.Federation.Domain_summary} packets (so a
    lossy burst in a federated world can also starve the parent's
    liveness lease). *)
