(** Simulcast (replicated-stream) sessions.

    The paper's introduction contrasts two ways to serve heterogeneous
    receivers: cumulative layers (what TopoSense controls) and *replicas
    of differing quality* — independent full streams on separate groups,
    each receiver joining exactly one. This module implements the
    replica model so the bandwidth-efficiency comparison the layered
    literature claims (a shared link carries one copy of the layers vs
    one copy of every distinct replica in use) can be measured; see
    [Scenarios.Head_to_head.shared_link_bytes] and the simulcast section
    of [toposense_sim ablations].

    Replica [k] (0-based) is quality-equivalent to layered level [k+1]:
    it runs at the layering's cumulative rate for that level. *)

type t

val create :
  router:Multicast.Router.t ->
  source:Net.Addr.node_id ->
  layering:Layering.t ->
  id:int ->
  t
(** Allocates one group per replica; replica count = layer count. *)

val id : t -> int
val stream_count : t -> int
val rate_bps : t -> stream:int -> float
val group_for_stream : t -> stream:int -> Net.Addr.group_id

val select :
  t -> router:Multicast.Router.t -> node:Net.Addr.node_id -> stream:int option -> unit
(** Switch the node to one replica (leaving any other), or to none. *)

val selected :
  t -> router:Multicast.Router.t -> node:Net.Addr.node_id -> int option

type sender
(** One replica's CBR emitter. *)

val start_sources :
  network:Net.Network.t -> t -> rng:Engine.Prng.t -> sender list
(** One always-on CBR sender per replica (replicas are pruned by the
    multicast tree exactly like layers). Packets are tagged
    [Data {session = id; layer = stream; _}]. *)

val stop : sender -> unit
val packets_sent : sender -> int
