(** Fault injection.

    Drives the failure machinery of the lower layers from one place: link
    failures and repairs (immediate or scheduled), and a lossy/laggy
    control plane that silently drops or delays a configurable fraction
    of the packets a caller-supplied classifier marks as control traffic
    (reports, suggestions, discovery probes — the [net] layer cannot name
    them itself, so the classifier inspects payloads upstack).

    A link failure propagates through the stack on its own: the two
    simplex {!Link}s lose in-flight and queued packets, {!Routing}
    recomputes incrementally, and {!Network}'s topology observers (the
    multicast router's tree repair among them) fire. An idle [Faults.t]
    changes nothing — runs without injected faults are byte-identical to
    runs without the module. *)

type t

val create : network:Network.t -> unit -> t
(** Random draws for the control-plane tamperer come from the dedicated
    ["net-faults"] stream of the simulation's root PRNG. *)

val link_down : t -> a:Addr.node_id -> b:Addr.node_id -> unit
(** Immediately fails the duplex link (no-op if already down).
    @raise Invalid_argument if the nodes are not adjacent. Test-only: the
    fault tests inject directly; scenarios go through {!schedule_flap}. *)

val link_up : t -> a:Addr.node_id -> b:Addr.node_id -> unit
(** Immediately restores the duplex link (no-op if already up). *)

val schedule_link_down :
  t -> at:Engine.Time.t -> a:Addr.node_id -> b:Addr.node_id -> unit
(** Test-only: the link tests schedule an outage that never heals. *)

val schedule_flap :
  t ->
  a:Addr.node_id ->
  b:Addr.node_id ->
  down_at:Engine.Time.t ->
  up_at:Engine.Time.t ->
  unit
(** One down/up cycle. Both timers capture the endpoints' crash epochs
    at scheduling time and void themselves if a crash intervenes — a
    stale [set_up true] can never resurrect a crashed node's link.
    @raise Invalid_argument if [up_at <= down_at]. *)

(** {2 Node crash faults}

    A crash is fail-stop at the network boundary: every incident link
    goes down atomically (each through {!Network.set_link_up}, so the
    incremental route recompute and the multicast repair observers run
    per link), and the packets those links were carrying or queueing are
    drained into {!crash_drops}. The upper layers' state at the node —
    multicast group state, a co-located controller — is wiped/stopped by
    whoever registered a {!add_crash_observer} callback; the [net] layer
    cannot name those layers itself. Recovery restores exactly the links
    the crash took down (skipping any whose far endpoint is itself
    crashed), each an incremental edge splice, leaving routing
    bit-identical to a fresh compute. Links failed independently (e.g.
    by a flap) are not touched. *)

val crash_node : t -> node:Addr.node_id -> unit
(** No-op if the node is already crashed. Test-only: the crash tests
    inject directly; scenarios go through {!schedule_crash}. *)

val recover_node : t -> node:Addr.node_id -> unit
(** No-op if the node is not crashed. A claimed link whose far endpoint
    is still crashed is not restored here — the claim is handed over to
    that endpoint, so overlapping crashes converge: the link comes back
    when its last crashed endpoint recovers. *)

val node_is_crashed : t -> Addr.node_id -> bool
(** Test-only: the crash tests read a node's state through it. *)

val schedule_crash : t -> at:Engine.Time.t -> node:Addr.node_id -> unit
val schedule_recover : t -> at:Engine.Time.t -> node:Addr.node_id -> unit

val add_crash_observer : t -> (Addr.node_id -> up:bool -> unit) -> unit
(** Observers run (in registration order) after a crash has downed the
    node's links ([up = false]) and after a recovery has restored them
    ([up = true]). The scenario layer's world registers the one
    observer, which wipes/rebuilds the node's multicast group state and
    stops/restarts co-located controllers and agents. *)

val set_control_plane :
  t ->
  classify:(Packet.t -> bool) ->
  ?drop_fraction:float ->
  ?delay_fraction:float ->
  ?delay:Engine.Time.span ->
  unit ->
  unit
(** Installs the origination filter: each packet for which [classify] is
    true is silently dropped with probability [drop_fraction], delayed by
    [delay] with probability [delay_fraction], and passed through
    otherwise. Fractions default to 0.
    @raise Invalid_argument on a NaN fraction or one outside [0,1], on
    [drop_fraction + delay_fraction > 1] or on a negative delay. *)

val clear_control_plane : t -> unit

(** Counters, for the recovery metrics. *)

val link_downs : t -> int
val link_ups : t -> int

val control_dropped : t -> int
val control_delayed : t -> int

val node_crashes : t -> int
val node_recoveries : t -> int

val crash_drops : t -> int
(** Packets drained out of a crashing node's incident links — its queued
    and in-flight traffic at the instant of the crash. *)

val crash_link_downs : t -> int
(** Link transitions performed by crashes, kept apart from {!link_downs}
    so link-fault-only scenarios read the same with the crash machinery
    present. *)

val crash_link_ups : t -> int
