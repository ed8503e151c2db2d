(** Unicast shortest-path routing with lazily materialized tables.

    Runs Dijkstra (weight = propagation delay, ties broken by node id so
    tables are deterministic) per destination and produces, for every
    node, the next-hop neighbor toward that destination. Multicast
    reverse-path forwarding reuses the same tables: the RPF interface
    toward a source is the unicast next hop toward it.

    A destination's [(next, dist)] column is computed on the first query
    that routes toward it and cached in a sparse slot, so memory is
    proportional to destinations actually routed to rather than
    [node_count ** 2] — a multicast workload only materializes columns
    for sources and control-plane endpoints, which is what lets 10k–1M
    receiver topologies route at all. Answers are bit-identical to an
    eagerly computed table: a column materialized late is computed
    against the live link set, and both leave the unique canonical
    table for that topology (see DESIGN.md, "Scaling state").

    The adjacency is held in compressed sparse rows with one up/down
    byte per directed entry, and every Dijkstra pass over a table reuses
    its one [(distance, node)] heap of two int arrays, so a pass
    allocates only the columns it fills.

    Links can be administratively disabled (the fault-injection layer's
    link failures) and re-enabled. Recomputation is incremental in both
    directions and confined to materialized columns: taking a link down
    rebuilds only the destinations whose shortest-path tree crossed it;
    restoring one splices the edge back in per destination — seeding
    from whichever endpoint it improves and relaxing outward, or
    skipping the destination entirely — yielding exactly the tables a
    fresh computation would produce, preserved tie-breaks included (see
    DESIGN.md, "Incremental maintenance"). With links down the graph may
    be partitioned, in which case the affected entries report the
    destination as unreachable. *)

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
    Quadratic state — do not call on generated large worlds. *)

val materialized_columns : t -> int
(** Number of destination columns currently materialized. Memory spent
    on routing state is proportional to this, not to [node_count]²; the
    scale scenarios assert it stays O(control-plane endpoints). *)

val heap_pushes : t -> int
(** Total priority-queue pushes performed by full-column Dijkstras since
    creation (materializations and link-down recomputes). Exposed for
    the regression test pinning that equality-only tie-break rewrites do
    not re-push. *)

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
    spliced by the bounded link-up update. Destinations skipped because
    the change could not affect them — including columns that were never
    materialized — are not counted, so under churn this grows with the
    damage done, not with [events x node_count] (materializations are
    creation, not damage, and are not counted either). *)
