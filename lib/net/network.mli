(** The assembled simulated network.

    Instantiates a {!Topology} on a simulator: creates the simplex links,
    installs unicast forwarding from the {!Routing} tables, and exposes the
    hooks the higher layers plug into — a local-delivery handler per node
    (applications) and a multicast handler per node (the [Multicast]
    library's forwarder). Interface [i] of node [n] is its duplex link to
    [neighbor n i]; a packet arriving from that neighbor is reported with
    [in_iface = i]. *)

type t

val create : sim:Engine.Sim.t -> Topology.t -> t
(** @raise Invalid_argument if the topology is not connected. *)

val sim : t -> Engine.Sim.t

val arena : t -> Packet.arena
(** The packet arena every packet of this network lives in; field
    accessors ({!Packet.src}, {!Packet.is_data}, …) take it. *)

val routing : t -> Routing.t
val node_count : t -> int

val iface_count : t -> Addr.node_id -> int
val neighbor : t -> node:Addr.node_id -> iface:int -> Addr.node_id
val iface_to : t -> node:Addr.node_id -> neighbor:Addr.node_id -> int
(** The inverse of {!neighbor}, by binary search over [node]'s
    interfaces sorted by neighbor id.
    @raise Not_found if the nodes are not adjacent. *)

val iface_toward : t -> node:Addr.node_id -> dst:Addr.node_id -> int
(** The RPF interface: the interface on the unicast shortest path from
    [node] toward [dst]. @raise Invalid_argument if [node = dst].
    Test-only: the network tests check the RPF mapping through it. *)

val set_local_handler : t -> Addr.node_id -> (Packet.t -> unit) -> unit
(** Called for every packet whose final destination is this node —
    unicast packets addressed to it, and multicast packets the multicast
    handler chooses to deliver locally. Replaces ALL handlers previously
    installed on the node. Test-only: tests replace a node's handlers
    with a probe of their own. *)

val add_local_handler : t -> Addr.node_id -> (Packet.t -> unit) -> unit
(** Installs an additional handler without disturbing the existing ones
    (they all run, in installation order). This is how several
    applications share one node — e.g. a controller agent co-located
    with a receiver agent, as when the paper stations the controller at
    a source that also subscribes. *)

val add_transit_observer :
  t -> (Packet.t -> at:Addr.node_id -> in_iface:int option -> unit) -> unit
(** Observers run for every packet at every node it visits (origination,
    transit and delivery), before forwarding. They model in-network
    support such as mtrace's per-router hop recording and the probe-based
    discovery service's hop sightings. Multiple observers run in
    registration order. *)

type topology_event = {
  a : Addr.node_id;
  b : Addr.node_id;  (** the changed duplex link *)
  up : bool;
  affected_destinations : Addr.node_id list;
      (** destinations whose routing tables the change updated, ascending
          (see {!Routing.set_link_enabled}); empty for a no-op change *)
}

val add_topology_observer : t -> (topology_event -> unit) -> unit
(** Observers run (in registration order) after every administrative link
    state change made through {!set_link_up}, once routing has been
    updated. The event identifies the changed link and the destinations
    whose tables moved, so an observer can bound its own repair work to
    the damage — the multicast router uses this to repair only the trees
    whose reverse paths the change touched. *)

val set_link_up : t -> a:Addr.node_id -> b:Addr.node_id -> bool -> unit
(** Fails or restores the duplex link between [a] and [b]: both simplex
    links lose their in-flight and queued packets (see {!Link.set_up}),
    the routing tables are recomputed incrementally, and the topology
    observers fire. Idempotent per direction of change.
    @raise Invalid_argument if the nodes are not adjacent. *)

val link_is_up : t -> a:Addr.node_id -> b:Addr.node_id -> bool
(** @raise Invalid_argument if the nodes are not adjacent. *)

val set_origination_filter :
  t -> (Packet.t -> [ `Deliver | `Drop | `Delay of Engine.Time.span ]) -> unit
(** Installs a filter consulted for every originated packet before it
    enters the network — the fault-injection layer's hook for a lossy or
    laggy control plane. [`Drop] silently discards the packet (the
    filter counts its own drops, as {!Faults.control_dropped} does);
    [`Delay d] injects it after [d]. At most one filter; installing
    replaces the previous one. *)

val clear_origination_filter : t -> unit

val unroutable_drops : t -> int
(** Unicast packets dropped because their destination was unreachable
    (only possible while links are down). *)

val fault_drops : t -> int
(** Sum of {!Link.fault_drops} over every simplex link. *)

val set_mcast_handler :
  t -> Addr.node_id -> (Packet.t -> in_iface:int option -> unit) -> unit
(** Called for every multicast packet seen at this node; [in_iface] is
    [None] when the node itself originated the packet. The handler takes
    ownership of the handle (it must forward, copy-and-forward, or free
    it). Without a handler, multicast packets are freed silently. *)

val deliver_local : t -> Addr.node_id -> Packet.t -> unit
(** Invokes the node's local handlers (used by the multicast forwarder).
    Handlers borrow the packet; the caller keeps ownership. *)

val originate :
  t ->
  src:Addr.node_id ->
  dst:Addr.dest ->
  size:int ->
  payload:Packet.payload ->
  unit
(** Creates a packet at [src] and routes it: unicast packets follow the
    next-hop tables (a packet addressed to the source itself is delivered
    locally and immediately); multicast packets go to the multicast
    handler. @raise Invalid_argument if [size <= 0]. *)

val originate_data :
  t ->
  src:Addr.node_id ->
  group:Addr.group_id ->
  size:int ->
  session:int ->
  layer:int ->
  seq:int ->
  unit
(** {!originate} specialised to media packets bound for a group: the
    payload ints go straight into the arena, so a steady-state emission
    allocates nothing. *)

val send_on_iface : t -> node:Addr.node_id -> iface:int -> Packet.t -> unit
(** Pushes a packet onto one outgoing link (consuming the handle); used
    by the multicast forwarder. *)

val link_on_iface : t -> node:Addr.node_id -> iface:int -> Link.t
(** The outgoing simplex link on an interface (for tests and metrics). *)
