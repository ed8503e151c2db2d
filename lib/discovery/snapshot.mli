(** A point-in-time image of one session's multicast topology.

    The *session topology* is the overlay of the per-layer distribution
    trees; because layers are cumulative it is itself a tree, rooted at the
    source (paper Section III). Each edge carries the set of layers
    flowing over it; each member carries its subscription level as visible
    in group-membership state. *)

type edge = {
  parent : Net.Addr.node_id;
  child : Net.Addr.node_id;
  layers : int list;  (** sorted, 0-based layers flowing on this edge *)
}

type t = {
  session : int;
  taken_at : Engine.Time.t;
  source : Net.Addr.node_id;
  edges : edge list;  (** sorted by (parent, child) *)
  members : (Net.Addr.node_id * int) list;
      (** receivers with their subscription level, sorted by node *)
}

val capture :
  router:Multicast.Router.t ->
  session:Traffic.Session.t ->
  at:Engine.Time.t ->
  t
(** Reads the router's current forwarding and membership state. *)

val is_tree : t -> bool
(** Sanity: every non-source node has at most one parent and the edge set
    is acyclic and reachable from the source. *)

val restrict : t -> domain:Net.Addr.node_id list -> t option
(** The paper's per-domain view (Section II): keep only the part of the
    session tree inside an administrative [domain]. The restricted
    snapshot is rooted at the domain's ingress — the unique domain node
    whose tree parent lies outside the domain (or the session source when
    it belongs to the domain). [None] when the session does not enter the
    domain. @raise Invalid_argument if the tree enters the domain at more
    than one ingress (the domain is not subtree-shaped for this
    session); the message names the offending ingress nodes. Validate
    domain assignments up front with
    [Scenarios.Builders.validate_domains]. This is the one-domain case of
    {!partition}. *)

type part
(** One domain's share of a snapshot, as cut by {!partition}. *)

val partition :
  t -> slots:int -> slot_of:(Net.Addr.node_id -> int) -> part array
(** Cuts the snapshot into [slots] disjoint domains in one
    O(edges + members) pass. [slot_of n] is the domain holding node [n]
    (in [0, slots)), or a negative number when [n] is in none. Element
    [s] of the result is domain [s]'s share; read it with {!part_view}. *)

val part_view : part -> t option
(** The domain's restricted snapshot, exactly as {!restrict} returns it
    for that domain's node list, and raising the same [Invalid_argument]
    when the session enters the domain more than once. *)
