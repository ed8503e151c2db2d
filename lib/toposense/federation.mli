(** Two-level controller federation for scaled worlds.

    The paper's Fig. 3 places one controller per administrative domain;
    at 10k–1M receivers a single flat controller would hold per-receiver
    state for the whole population. The federation splits the job: each
    {e leaf} controller prescribes for its own domain from a restricted
    snapshot ({!Discovery.Snapshot.restrict}) and, once per TopoSense
    interval, unicasts one fixed-size {!Domain_summary} per session to a
    {e parent}. The parent never sees receivers — it keeps exactly one
    slot per (session, domain) pair, so its state and the control
    traffic it absorbs are O(domains), independent of receiver count
    (pinned by a counter test).

    A summary is a fixed-size liveness beat: the parent reads only who
    sent it and its place in the stream, and holds a {e liveness lease}
    on every domain's summaries. A domain silent longer than the lease
    is marked degraded and handed to the parent, the only failover
    target, which prescribes directly from the unrestricted snapshot; a
    leaf that comes back rejoins with its next summary. A leaf's sequence
    numbers only grow, across its controller's stops and restarts, so one
    rule serves reordering and restarts alike: the parent drops a summary
    whose seq is not above its slot's. All of it is inert until
    {!start_failover} arms the monitor. *)

type Net.Packet.payload +=
  | Domain_summary of {
      domain : int;
      session : int;
      seq : int;
          (** per leaf, growing across its controller's restarts: a
              summary at or below the slot's seq is a straggler *)
    }
      (** 56 bytes on the wire, whatever the parent reads of it. *)

(** {1 Leaf side} *)

type leaf

val leaf : parent:Net.Addr.node_id -> domain_id:int -> leaf
(** Handed to {!Controller.create} via [?federation]; the controller
    then emits one summary per session per interval.
    @raise Invalid_argument on a negative [domain_id]. *)

val send_summary :
  leaf -> network:Net.Network.t -> src:Net.Addr.node_id -> session:int -> unit
(** Originates one summary to the leaf's parent (self-addressed works:
    the network delivers locally). Used by {!Controller}. *)

(** {1 Parent side} *)

type parent

val create_parent :
  network:Net.Network.t -> node:Net.Addr.node_id -> parent
(** Installs a local handler at [node] consuming {!Domain_summary}
    packets. Coexists with other local handlers (e.g. a leaf controller
    on the same node). *)

val summaries_received : parent -> int

val stale_dropped : parent -> int
(** Reordered or pre-restart summaries dropped by the per-leaf
    sequence check. *)

val state_entries : parent -> int
(** Live (session, domain) slots — the parent's entire footprint. The
    scale scenario asserts this stays at sessions x domains while
    receiver counts grow 10x. *)

(** {1 Leaf-controller failover} *)

val start_failover :
  parent ->
  check_period:Engine.Time.span ->
  silence:Engine.Time.span ->
  ?on_degraded:(domain:int -> unit) ->
  ?on_rejoined:(domain:int -> unit) ->
  unit ->
  unit
(** Arms the liveness monitor: every [check_period] it sweeps the slots,
    and a domain whose freshest summary is older than [silence] is
    marked degraded. [on_degraded] fires once per degradation, and the
    scenario layer re-points the domain's receiver agents at the
    parent's node for direct re-homing (they ride the RLM fallback until
    prescriptions resume).
    [on_rejoined] fires when a degraded domain's summaries return.
    @raise Invalid_argument if already armed or on a non-positive
    period/silence. *)

val stop_failover : parent -> unit

val set_rehome_counter : parent -> (unit -> int) -> unit
(** Registers the suggestion counter of the controller that serves
    re-homed domains (typically
    [fun () -> Controller.suggestions_sent c] for the parent-side
    controller). The monitor samples it as a delta while at least one
    domain is degraded, attributing those prescriptions to
    {!rehomed_prescriptions}. *)

val degraded_now : parent -> int
(** Domains currently degraded (gauge). *)

(** Failover counters (cumulative). *)

val failovers : parent -> int
(** Degradation events: silent-domain detections by the monitor, each
    handed to the parent (the only failover target). *)

val rejoins : parent -> int
(** Degraded domains whose summary stream came back. *)

val rehomed_prescriptions : parent -> int
(** Prescriptions the re-home controller issued during degraded
    windows (see {!set_rehome_counter}). *)
