(** mtrace-style hop-by-hop tree walks.

    The tools the paper builds on (mtrace, MHealth, mrtree) reconstruct a
    multicast tree by walking it hop by hop from each receiver toward the
    source, querying every router on the way. This module reproduces that
    view over the router's installed forwarding state and, crucially,
    computes how long such a walk takes — the paper's Fig. 10 discussion
    hinges on discovery time being bounded by the maximum source-receiver
    path latency (600 ms in Topology A). *)

type hop = {
  node : Net.Addr.node_id;
  layers : int list;  (** layers flowing into this hop, sorted *)
}

val trace :
  router:Multicast.Router.t ->
  session:Traffic.Session.t ->
  receiver:Net.Addr.node_id ->
  (hop list, string) result
(** The path receiver → … → source over the session's installed base-layer
    tree, with the layers observed entering each hop. [Error] when the
    receiver is not currently on the tree. *)

val trace_latency :
  network:Net.Network.t ->
  querier:Net.Addr.node_id ->
  path:hop list ->
  Engine.Time.span
(** Time for an mtrace-style walk issued from [querier]: the query
    travels to the receiver, is forwarded hop-by-hop up the tree, and the
    response returns from the source — one propagation across each
    segment, i.e. querier→receiver + receiver→…→source + source→querier. *)
