(** The optimal-subscription oracle.

    The paper's evaluation compares TopoSense against the known optimum of
    its synthetic topologies. This oracle computes that optimum from the
    *true* network description (which TopoSense itself never sees): a
    receiver's optimal level is the largest level whose cumulative rate
    fits its fair share of every link on its path from the source, where
    the fair share of a link is its capacity divided by the number of
    sessions crossing it. With a small headroom discount for packetization
    this matches the paper's stated optima (e.g. 4 layers ≈ 500 Kbps). *)

val optimal_level :
  topology:Net.Topology.t ->
  routing:Net.Routing.t ->
  layering:Traffic.Layering.t ->
  sessions:(Net.Addr.node_id * Net.Addr.node_id list) list ->
  source:Net.Addr.node_id ->
  receiver:Net.Addr.node_id ->
  int
(** The optimum for one receiver of the session rooted at [source].
    [sessions] are (source, receivers); a link is crossed by a session
    when it lies on the routed path from the source to one of its
    receivers, in either direction. *)
