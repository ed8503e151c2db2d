(** A simplex link.

    Models store-and-forward transmission: a packet occupies the link for
    its serialization time (size / bandwidth), then arrives at the far end
    after the propagation delay. Packets offered while the link is busy
    wait in the link's queue (any {!Queue_discipline}); the in-service
    packet is held separately from the queue. Duplex links are built as
    two simplex links by {!Topology}.

    The queue is built the first time a packet has to wait, that is when
    {!send} finds the link busy; most links of a large world never need
    one. Until then {!drops}, {!early_drops} and {!queue_length} read 0,
    exactly what an untouched queue reads. A RED queue then splits its
    stream from the simulator under the label [queue-<src>-<dst>]; the
    other disciplines hold no stream. *)

type t

val create :
  sim:Engine.Sim.t ->
  arena:Packet.arena ->
  src:Addr.node_id ->
  dst:Addr.node_id ->
  bandwidth_bps:float ->
  prop_delay:Engine.Time.span ->
  discipline:Queue_discipline.spec ->
  t
(** @raise Invalid_argument if [bandwidth_bps] is not positive and
    finite, or [discipline] is invalid ({!Queue_discipline.validate_spec}). *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Installs the arrival callback (fired at the destination node,
    propagation delay after serialization completes). Must be set before
    the first {!send}. The callback takes ownership of the packet
    handle. *)

val send : t -> Packet.t -> unit
(** Offer a packet to the link; consumes the handle on every path.
    Silently dropped (freed and counted) when the queue is full, or
    counted as a fault drop when the link is down. *)

val set_up : t -> bool -> unit
(** Fails or restores the link. Taking it down loses the in-service
    packet, drains the queue and voids in-flight deliveries (all counted
    in {!fault_drops}); packets offered while down are likewise lost.
    Restoring it resumes normal service for subsequent packets.
    Idempotent. *)

val is_up : t -> bool

val src : t -> Addr.node_id
val dst : t -> Addr.node_id
val bandwidth_bps : t -> float
val prop_delay : t -> Engine.Time.span

(** Counters (cumulative since creation; the metrics layer diffs them). *)

val tx_packets : t -> int
(** Packets fully serialized onto the wire. *)

val tx_bytes : t -> int
val drops : t -> int

val fault_drops : t -> int
(** Packets lost to link failure: offered while down, drained from the
    queue, in service, or in propagation when the link went down. *)

val early_drops : t -> int
(** RED early drops on this link's queue (0 for other disciplines). *)

val queue_length : t -> int
(** Packets waiting, excluding the one in service. *)

val pool_cells : t -> int
(** Number of in-flight transmission cells ever created for this link.
    Cells (and their reusable timers) are recycled through a free list,
    so this is the high-water mark of simultaneously in-flight packets —
    steady-state forwarding keeps it flat; for tests of pool reuse. *)
