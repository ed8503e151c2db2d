(** Addresses.

    Nodes and multicast groups are identified by small dense integers,
    assigned by the topology builder. Groups are independent of nodes: a
    layered session uses one group per layer. *)

type node_id = int
(** Index of a node in the network; dense, starting at 0. *)

type group_id = int
(** A multicast group address; dense, starting at 0. *)

type dest =
  | Unicast of node_id
  | Multicast of group_id

val pp_node : Format.formatter -> node_id -> unit
