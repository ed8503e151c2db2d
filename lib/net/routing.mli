(** Unicast shortest-path routing with lazily materialized tables.

    Runs Dijkstra (weight = propagation delay, ties broken by node id so
    tables are deterministic) per destination and produces, for every
    node, the next-hop neighbor toward that destination. Multicast
    reverse-path forwarding reuses the same tables: the RPF interface
    toward a source is the unicast next hop toward it.

    Columns cover the core only. A {e pendant} is a node with one link
    whose neighbour has more than one (every receiver of a transit-stub
    world); every other node is {e core}. No shortest path between two
    other nodes crosses a pendant, so it never enters a Dijkstra pass
    or a column: it is answered from its link. Its next hop is its
    neighbour while that link is up and the neighbour is the
    destination or reaches it, and its distance is the link's delay
    plus the neighbour's. A pendant destination's column is seeded at
    its neighbour, one link's delay out, and is all-unreachable while
    its link is down. Answers are those of full per-node columns,
    bit for bit.

    A destination's [(next, dist)] column is computed on the first query
    that routes toward it and cached in a sparse slot, so routing memory
    is materialized columns × core nodes: a multicast workload only
    materializes columns for sources and control-plane endpoints, and a
    transit-stub world's core is its routers, not its receivers. Answers
    are bit-identical to an eagerly computed table: a column
    materialized late is computed against the live link set, and both
    leave the unique canonical table for that topology (see DESIGN.md,
    "Scaling state").

    The core adjacency is held in compressed sparse rows with one
    up/down byte per directed entry, and every Dijkstra pass over a
    table reuses its one [(distance, node)] heap of two int arrays, so a
    pass allocates only the columns it fills.

    Links can be administratively disabled (the fault-injection layer's
    link failures) and re-enabled. Recomputation is incremental in both
    directions and confined to materialized columns: taking a core link
    down rebuilds only the destinations whose shortest-path tree crossed
    it; restoring one splices the edge back in per destination — seeding
    from whichever endpoint it improves and relaxing outward, or
    skipping the destination entirely — yielding exactly the tables a
    fresh computation would produce, preserved tie-breaks included. A
    pendant's link changes no core entry: flipping it refills only the
    pendant's own column (see DESIGN.md, "Incremental maintenance").
    With links down the graph may be partitioned, in which case the
    affected entries report the destination as unreachable. *)

type t

val compute : Topology.t -> t
(** Builds the adjacency and validates connectivity; no tables are
    materialized until queried.
    @raise Invalid_argument if the topology is not connected. *)

val prefetch_all : t -> unit
(** Materializes every destination's column. Paper-scale fault rigs and
    damage-accounting tests call this so {!recomputes} and the
    affected-destination lists of {!set_link_enabled} are measured over
    the full table set, comparable with the historically eager tables.
    State is nodes × core nodes and one Dijkstra per node — do not call
    on generated large worlds whose core is large. *)

val materialized_columns : t -> int
(** Number of destination columns currently materialized. Memory spent
    on routing state is this times the core node count, not
    [node_count]²; the scale scenarios assert it stays
    O(control-plane endpoints). *)

val heap_pushes : t -> int
(** Total priority-queue pushes performed by full-column Dijkstras since
    creation (materializations and link-down recomputes). Only core
    nodes are pushed; pendants never enter the heap. Exposed for the
    regression test pinning that equality-only tie-break rewrites do not
    re-push. *)

val next_hop : t -> from:Addr.node_id -> dst:Addr.node_id -> Addr.node_id
(** The neighbor to forward to, or [-1] when [dst] is currently
    unreachable (only possible while links are disabled). [from = dst] is
    an error. @raise Invalid_argument on [from = dst]. *)

val next_hop_opt :
  t -> from:Addr.node_id -> dst:Addr.node_id -> Addr.node_id option
(** [None] when [dst] is unreachable from [from].
    @raise Invalid_argument on [from = dst]. *)

val reachable : t -> from:Addr.node_id -> dst:Addr.node_id -> bool
(** Test-only: the partition tests check reachability through it. *)

val path : t -> from:Addr.node_id -> dst:Addr.node_id -> Addr.node_id list
(** The full node sequence [from; ...; dst].
    @raise Invalid_argument if [dst] is unreachable. *)

val distance : t -> from:Addr.node_id -> dst:Addr.node_id -> Engine.Time.span
(** Sum of link delays along the routed path; [max_int] when
    unreachable. *)

val set_link_enabled :
  t -> a:Addr.node_id -> b:Addr.node_id -> bool -> Addr.node_id list
(** Administratively disables or re-enables the duplex link between [a]
    and [b] and updates the affected materialized tables incrementally.
    Returns the materialized destinations whose tables changed, in
    ascending order — empty when the call was a no-op (already in the
    requested state, or restoring an edge that improves no path).
    Columns not yet materialized are not updated, not reported, and cost
    nothing; a later query computes them against the live link set.
    Idempotent.
    @raise Invalid_argument on an unknown node, on [a = b], or if the
    nodes are not adjacent. *)

val recomputes : t -> int
(** Destination tables updated by {!set_link_enabled} since creation: one
    per full per-destination Dijkstra on a link-down, one per destination
    spliced by the bounded link-up update, and one per destination whose
    table a pendant's link flip changed (its own, and each one its
    neighbour reaches). Destinations skipped because the change could
    not affect them — including columns that were never materialized —
    are not counted, so under churn this grows with the damage done, not
    with [events x node_count] (materializations are creation, not
    damage, and are not counted either). *)
