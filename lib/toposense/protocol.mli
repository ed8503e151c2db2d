(** Reliable-delivery layer for the TopoSense control plane.

    The paper treats reports and prescriptions as fire-and-forget: both
    are droppable packets and the receiver's unilateral watchdog is the
    only safety net. This module adds the soft-state reliability the
    architecture needs once the network itself can fail (PR 2's
    {!Net.Faults}): per-(session, node) sequence numbers on every report
    and prescription, duplicate/stale rejection on both ends, and
    exponential-backoff retransmission of unACKed prescriptions.

    Sequence spaces are independent per (session, node) pair and per
    direction — the controller's prescription numbering for a receiver is
    unrelated to that receiver's report numbering. Numbers start at 1 and
    only ever grow; eviction or fallback never rewinds them, so a
    re-admitted receiver can never be locked out by its own stale
    history.

    All randomness for retransmission jitter must come from a dedicated
    PRNG stream (the callers use ["toposense-protocol"]), so runs that
    never retransmit stay byte-identical to runs built without this
    module. *)

type Net.Packet.payload +=
  | Ack of { session : int; receiver : Net.Addr.node_id; seq : int }
        (** Receiver → controller: prescription [seq] for [session] was
            received (fresh or duplicate) at [receiver]. *)

val ack_size : int
(** Bytes on the wire for an ACK packet (40). *)

(** {1 Send side: sequence stamping} *)

type tx
(** Monotonic per-(session, node) send counters. *)

val create_tx : unit -> tx

val next_seq : tx -> session:int -> node:Net.Addr.node_id -> int
(** Allocates the next sequence number for the stream (1, 2, 3, …). *)

val last_sent : tx -> session:int -> node:Net.Addr.node_id -> int
(** Last allocated number (0 before any send). Test-only: the protocol
    tests read a stream's high-water mark through it. *)

(** {1 Receive side: dup/stale rejection} *)

type rx
(** Highest-accepted sequence number per (session, node) stream. *)

type verdict =
  | Fresh  (** new-highest seq: accept and apply *)
  | Duplicate  (** seq equal to the last accepted: re-ACK, do not apply *)
  | Stale  (** seq below the last accepted: a reordered leftover, drop *)

val create_rx : unit -> rx

val admit : rx -> session:int -> node:Net.Addr.node_id -> seq:int -> verdict
(** Classifies an arriving sequence number and, when [Fresh], records it
    as the new high-water mark. Applying a message's effect iff [admit]
    says [Fresh] gives at-most-once semantics under any interleaving of
    duplication and reordering. *)

val last_accepted : rx -> session:int -> node:Net.Addr.node_id -> int
(** Current high-water mark (0 before any accept). Test-only: the
    protocol tests read a stream's high-water mark through it. *)

(** {1 Retransmission backoff} *)

val backoff_span : rng:Engine.Prng.t -> attempt:int -> Engine.Time.span
(** Delay before retransmission number [attempt] (0-based):
    [{!Params.retransmit_initial} * 2^attempt], capped at
    {!Params.retransmit_max}, then
    jittered by a uniform factor in [0.5, 1.5] drawn from [rng] — the
    caller passes the dedicated protocol stream. Always at least 1 ns so
    a retransmission never fires in the same instant it was armed. *)
