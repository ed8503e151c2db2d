(** Topology descriptions.

    A topology is a set of nodes and duplex links built before the network
    is instantiated. Defaults follow the paper's setup (200 ms link
    latency) and ns (drop-tail, 50 packets); both are overridable per
    link, and the scenario builders size queues near each link's
    bandwidth-delay product instead (see `Scenarios.Builders`). *)

type link_spec = {
  a : Addr.node_id;
  b : Addr.node_id;
  bandwidth_bps : float;
  delay : Engine.Time.span;
  discipline : Queue_discipline.spec;
}

type t

val create : unit -> t

val add_node : t -> Addr.node_id
(** Allocates the next node id. *)

val add_nodes : t -> int -> Addr.node_id list
(** [add_nodes t k] allocates [k] fresh nodes. *)

val add_duplex :
  t ->
  a:Addr.node_id ->
  b:Addr.node_id ->
  bandwidth_bps:float ->
  ?delay:Engine.Time.span ->
  ?queue_limit:int ->
  ?discipline:Queue_discipline.spec ->
  unit ->
  unit
(** Adds a duplex link (two simplex links of identical parameters).
    [queue_limit] selects a drop-tail queue of that many packets (the
    default); [discipline] overrides it with any {!Queue_discipline.spec}.
    @raise Invalid_argument on unknown nodes, self-loops, duplicates, a
    non-positive [delay], a non-positive [queue_limit] (when no
    [discipline] is given) or an invalid discipline. Links build their queues on first wait, so this
    is where a bad queue config fails. *)

val node_count : t -> int
val links : t -> link_spec list
(** In insertion order. *)

val neighbors : t -> Addr.node_id -> Addr.node_id list
(** Sorted by node id. Test-only: the network property test checks the
    interface mapping against it. *)

val is_connected : t -> bool

val default_delay : Engine.Time.span
(** 200 ms (paper Section IV). *)

val default_queue_limit : int
(** 50 packets (the ns DropTail default). Test-only: the network tests
    build links at the default explicitly. *)

val kbps : float -> float
(** [kbps x] is [x] kilobits per second in bits per second. *)

val mbps : float -> float
