(** The paper's simulation topologies (Fig. 5).

    {b Topology A} — heterogeneity within one session: a source behind a
    fast core, two constrained branches (500 Kbps and 100 Kbps) each
    fanning out to [receivers_per_set] receivers over fast last hops.
    Optimal subscriptions: 4 layers (480 Kbps) on the fast branch, 2
    layers (96 Kbps) on the slow one. Three links from source to any
    receiver at 200 ms each gives the paper's 600 ms maximum path
    latency.

    {b Topology B} — inter-session fairness: [session_count] independent
    sessions, each with one receiver, all crossing one shared link sized
    [session_count] × 500 Kbps so that every session can optimally carry
    4 layers. *)

type spec = {
  topology : Net.Topology.t;
  controller_node : Net.Addr.node_id;
      (** a source node, as in the paper's runs *)
  sessions : (Net.Addr.node_id * Net.Addr.node_id list) list;
      (** (source, receivers) per session *)
}

val topology_a : receivers_per_set:int -> spec
(** @raise Invalid_argument if [receivers_per_set < 1]. *)

val topology_b : session_count:int -> spec
(** @raise Invalid_argument if [session_count < 1]. *)

val kary : fanout:int -> depth:int -> unit -> spec
(** Complete k-ary tree: a root, [depth] levels of [fanout]-way fan-out
    below it ([(fanout^(depth+1) - 1) / (fanout - 1)] nodes), every link
    fast. One session from the root to every leaf. Consecutive siblings
    are also linked: off every shortest path while the tree is intact,
    they turn a failed tree link into a reroute instead of a
    partition. Built for the churn-storm
    scenario and the large incremental-maintenance tests.
    @raise Invalid_argument if [fanout < 2] or [depth < 1]. *)

type world = {
  spec : spec;
  domains : (int * Net.Addr.node_id list) list;
      (** (domain_id, member nodes): dense ids in build order. The first
          member is where the domain's controller sits: the stub router
          in {!transit_stub}, the regional node in [Tiered.generate].
          Nodes outside every domain (the backbone and the source) are
          the federation parent's turf. *)
}

val transit_stub :
  transits:int ->
  stubs_per_transit:int ->
  receivers_per_stub:int ->
  unit ->
  world
(** Generated transit-stub world for the 10k–1M-receiver scale runs: a
    ring of [transits] transit routers (source behind transit 0), each
    serving [stubs_per_transit] stub routers over uplinks alternating
    500/100 Kbps (Topology A's heterogeneity at scale), each stub router
    fanning out to [receivers_per_stub] fast-last-hop receivers. One
    session from the source to every receiver; one controller domain
    per stub.

    Domain assignments are checked with {!validate_domains} before the
    world is returned.
    @raise Invalid_argument on non-positive knobs or an invalid domain
    drawing. *)

val validate_domains :
  topology:Net.Topology.t ->
  domains:(int * Net.Addr.node_id list) list ->
  (unit, string) result
(** Checks that domains are non-empty, disjoint, in range, and meet the
    rest of the topology at a single attachment node each — the static
    guarantee that every session tree enters a domain exactly once, so
    {!Discovery.Snapshot.restrict} cannot hit its multi-ingress error at
    run time. The error message names the domain and its attachment
    nodes. *)

val figure1 : unit -> spec
(** The paper's Fig. 1 illustration: source, a 64 Kbps branch serving two
    receivers (nodes 3 and 4 in the paper) and an unconstrained branch
    (node 5's subtree). Used by the quickstart example. *)

val fast_bps : float
(** Core/last-hop bandwidth used by the builders (10 Mbps). *)

val default_discipline : bandwidth_bps:float -> Net.Queue_discipline.spec
(** Drop-tail sized near the link's bandwidth-delay product, clamped to
    [10, 100] packets. *)

val map_disciplines :
  (Net.Queue_discipline.spec -> Net.Queue_discipline.spec) -> spec -> spec
(** [map_disciplines f spec] is [spec] on a fresh topology with the same
    nodes and links, in the same order, where each link's queue
    discipline [d] becomes [f d]. The queue-discipline ablation uses it
    to put RED or priority queues in place of drop-tail ones at the same
    limit. [spec] is left as it was.
    @raise Invalid_argument if [f] returns an invalid discipline. *)
