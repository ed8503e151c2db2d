(** A layered multicast session: a source node plus one multicast group per
    layer. Receivers change their subscription level by joining or leaving
    layer groups; because layers are cumulative, a receiver at level [k]
    is a member of groups for layers [0 .. k-1]. *)

type t

val create :
  router:Multicast.Router.t ->
  source:Net.Addr.node_id ->
  layering:Layering.t ->
  id:int ->
  t
(** Allocates the per-layer groups on the router. [id] tags the session's
    data packets (dense, unique per experiment). *)

val id : t -> int
val source : t -> Net.Addr.node_id
val layering : t -> Layering.t
val group_for_layer : t -> layer:int -> Net.Addr.group_id
val subscription_level :
  t -> router:Multicast.Router.t -> node:Net.Addr.node_id -> int
(** The node's current level: the number of consecutive layer groups it is
    a member of, starting from the base. *)

val set_subscription_level :
  t -> router:Multicast.Router.t -> node:Net.Addr.node_id -> level:int -> unit
(** Joins/leaves layer groups so the node's level becomes [level]. Layers
    are always added bottom-up and removed top-down, preserving the
    cumulative invariant. @raise Invalid_argument if out of range. *)
