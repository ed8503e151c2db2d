(** A TCP-Reno-like unicast flow.

    The paper's Section VI takes "a liberal view towards TCP friendliness"
    — arguing that layered multicast cannot mimic AIMD and that short-lived
    TCP traffic finishes before multicast control reacts. This module
    provides the competing-flow substrate to test that stance: a
    greedy, long-lived AIMD transfer (slow start, congestion avoidance,
    fast retransmit on triple duplicate ACKs, RTO with exponential
    backoff) whose throughput against a TopoSense session the
    `tcp-friendliness` bench measures.

    One flow owns its receiver node's local handler. Segments are 1000 B,
    ACKs 40 B. *)

type t

val start :
  network:Net.Network.t ->
  src:Net.Addr.node_id ->
  dst:Net.Addr.node_id ->
  ?flow_id:int ->
  unit ->
  t
(** Begins a greedy transfer immediately, in slow start with a
    congestion window of 2 segments up to a threshold of 64; it runs
    until the run ends. [flow_id] distinguishes concurrent flows
    (default 0). Test-only [flow_id]: the TCP tests run two flows from
    one host.
    @raise Invalid_argument if [src = dst]. *)

val bytes_acked : t -> int
(** Payload bytes acknowledged so far. *)

val throughput_bps : t -> over:Engine.Time.span -> float
(** [bytes_acked]·8 / [over] — mean goodput across a known window. *)

val cwnd : t -> float
(** Current congestion window, in segments. Test-only: the TCP tests
    bound the window through it. *)

val retransmissions : t -> int
val timeouts : t -> int
