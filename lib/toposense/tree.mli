(** The controller's internal image of one session topology.

    Built from a discovery {!Discovery.Snapshot}, the tree numbers its
    nodes once, in BFS order from the source: the source is index 0,
    every parent comes before its children, and siblings sit next to
    each other in snapshot edge order. The algorithm stages keep their
    per-node values in arrays indexed by that number, so a top-down pass
    is a loop up from 0 and a bottom-up pass a loop down from
    [size - 1]. *)

type t

val of_snapshot : ?prev:t -> Discovery.Snapshot.t -> t option
(** Builds the tree and validates it in one pass. [None] exactly when
    {!Discovery.Snapshot.is_tree} is false: a node with two parents, an
    edge into the source, or an edge that does not hang below the
    source.

    With [prev], the tree an earlier snapshot of the same session gave,
    a snapshot with [prev]'s source and the same (parent, child) edge
    sequence keeps [prev]'s numbering, parents, child ranges and index
    table: the result has {!same_numbering} with [prev], and only its
    members and member flags are read from the snapshot. An edge list
    physically equal to [prev]'s (as {!Discovery.Snapshot.capture}
    shares it) is recognised in constant time, any other in one walk.
    When the members list is [prev]'s too, the result is [prev]. Any
    other snapshot is built afresh, exactly as without [prev]. *)

val size : t -> int
(** Number of nodes, the source included. *)

val node : t -> int -> Net.Addr.node_id
(** The network node at an index; [node t 0] is the source. *)

val index : t -> Net.Addr.node_id -> int
(** The index of a network node; [-1] when the node is not in the
    tree. *)

val parent : t -> int -> int
(** Parent index; [-1] for the source. *)

val first_child : t -> int -> int
val child_count : t -> int -> int
(** The children of [i] are the indices [first_child t i] to
    [first_child t i + child_count t i - 1], in snapshot edge order. *)

val is_leaf : t -> int -> bool

val is_member : t -> int -> bool
(** Whether the node is one of {!members}. *)

val members : t -> (Net.Addr.node_id * int) list
(** Receivers with subscription levels, as recorded in the snapshot,
    restricted to nodes present in the tree, in snapshot order. *)

val edge : parent:Net.Addr.node_id -> child:Net.Addr.node_id -> int
(** A physical edge packed into one int, [(parent lsl 31) lor child], as
    {!Discovery.Snapshot.capture} packs it: the key of every per-edge
    table. *)

val edge_into : t -> int -> int
(** [edge] of the link from [parent t i] to [i]; [i] must not be 0. *)

val same_numbering : t -> t -> bool
(** Whether one tree was made from the other by {!of_snapshot}'s
    [prev] path on an unchanged shape, so that an index means the same
    node, parent and children in both. Constant time: two trees built
    apart answer [false] even when they are equal. *)
