(** Packets, as unboxed handles into a flat arena.

    A packet is an [int] handle — slot index in the high bits, a
    generation stamp in the low {!gen_bits} — into a struct-of-arrays
    {!arena} holding the per-packet fields ([src], [dst], [size],
    payload tag and payload ints) in growable flat arrays.
    The hot path (media traffic) therefore allocates nothing per packet:
    {!alloc_data} writes ints into arrays and returns an immediate.

    Slots are generation-counted: {!free} bumps the slot's generation,
    so a stale handle kept across a free/alloc cycle can neither read
    nor free the slot's next tenant (same discipline as the pooled link
    cells' epochs). Lifecycle operations ([free], [copy]) validate the
    generation; field accessors are unchecked for speed and must only
    be applied to live handles.

    The payload is still an extensible variant so higher layers
    (receiver reports, controller suggestions, discovery probes) can
    define their own payloads without this module depending on them —
    boxed payloads live in a side table consulted only for the rare
    control packets. [Data] — layered media traffic — is defined here
    and stored unboxed (three ints) because every layer of the stack
    inspects it. *)

type payload = ..

type payload +=
  | Data of {
      session : int;  (** session index, assigned by the traffic layer *)
      layer : int;  (** 0-based layer number within the session *)
      seq : int;  (** per-(session, layer) sequence number *)
    }

type t = int
(** A packet handle. Treat as abstract; only {!none} and handles
    returned by [alloc*]/[copy] are meaningful. *)

val none : t
(** Sentinel for "no packet" ([-1]); never a live handle. *)

type arena

val create_arena : ?initial:int -> unit -> arena
(** An empty arena with room for [initial] packets (default 256, at
    least 1); it grows on demand, doubling. Test-only [initial]: the
    arena property starts at 2 slots so that slot reuse and growth both
    happen. *)

val alloc :
  arena -> src:Addr.node_id -> dst:Addr.dest -> size:int -> payload:payload -> t
(** General allocation. A [Data] payload is destructured into the flat
    arrays; any other payload is kept boxed in the side table. *)

val alloc_data :
  arena ->
  src:Addr.node_id ->
  group:Addr.group_id ->
  size:int ->
  session:int ->
  layer:int ->
  seq:int ->
  t
(** Allocation-free fast path for media packets addressed to a group. *)

val copy : arena -> t -> t
(** Duplicate a live packet into a fresh slot (a copy is the same wire
    packet on another branch of the multicast tree). *)

val free : arena -> t -> unit
(** Return the slot to the free list and bump its generation. Raises
    [Invalid_argument] on a stale or double free. *)

val is_live : arena -> t -> bool
(** Whether the handle names its slot's current tenant. Test-only: the
    arena property test checks the generation guard through it. *)

val live_count : arena -> int

(** {1 Field accessors} — unchecked; the handle must be live. *)

val src : arena -> t -> Addr.node_id
val size : arena -> t -> int

val dst_is_multicast : arena -> t -> bool

val dst_node : arena -> t -> Addr.node_id
(** The unicast destination; undefined for multicast packets. *)

val dst_group : arena -> t -> Addr.group_id
(** The destination group; undefined for unicast packets. *)

val is_data : arena -> t -> bool

val session : arena -> t -> int
val layer : arena -> t -> int
val seq : arena -> t -> int
(** [Data] fields; undefined unless {!is_data}. *)

val payload : arena -> t -> payload
(** The boxed side-table entry for control packets (no allocation); a
    reconstructed [Data] record for media packets (allocates — hot
    paths must branch on {!is_data} first). *)

val data_size : int
(** Size of a media packet in bytes (paper Section IV: 1000). *)
