(** Failure-recovery experiments.

    Six fault scenarios, each reporting recovery-time and
    goodput/accuracy metrics:

    - {!link_flap} — the core→fast-branch link fails and later heals on a
      topology with a narrower two-hop detour, exercising incremental
      rerouting, multicast tree repair and the control loop's return to
      the pre-failure subscription levels;
    - {!router_crash} — the fast-branch router of the flap topology
      fails and recovers, partitioning the fast set meanwhile;
    - {!controller_outage} — the primary controller dies mid-run and a
      standby takes over later; receivers bridge the gap on their
      RLM-style unilateral watchdog;
    - {!lossy_control} — a configurable fraction of all control packets
      (reports, suggestions, ACKs, probes) is silently dropped or
      delayed, optionally with reliable (ACKed + retransmitted)
      prescriptions;
    - {!partition} — the controller sits on a dedicated node whose only
      link fails: the control plane is severed while the data plane keeps
      flowing; leases evict the unreachable receivers, the standalone
      RLM fallback keeps them adapting, and both ends reconverge after
      the heal;
    - {!churn_storm} — sustained random link flaps interleaved with
      membership churn on a large k-ary topology, measuring that the
      incremental route and tree maintenance does work proportional to
      the damage (not events × nodes) while staying exactly consistent
      with a from-scratch computation.

    All but {!churn_storm} run two receivers per set under CBR. The
    flap, the crash and the partition strike at 60 s and heal at 90 s;
    the outage stops the primary at 60 s and starts the standby at
    100 s. Each outcome records its instants. All runs are deterministic
    per seed. Without scheduled faults these rigs behave exactly like
    {!Experiment.run}'s. *)

(** {1 Link flap} *)

type flap_receiver = {
  node : Net.Addr.node_id;
  fast_branch : bool;  (** behind the flapped link *)
  optimal : int;  (** steady-state optimum *)
  optimal_during : int;  (** optimum while rerouted over the detour *)
  pre_failure_level : int;  (** subscription just before the link died *)
  floor_level : int;  (** lowest subscription inside the failure window *)
  recovery_s : float option;
      (** seconds after the link healed until the subscription was back
          at the pre-failure level; [Some 0.] if it never fell *)
  goodput_before_bps : float;
  goodput_during_bps : float;
      (** delivered application goodput in the failure window and in an
          equally long window just before it *)
  final_level : int;
}

type flap_outcome = {
  receivers : flap_receiver list;
  down_at_s : float;
  up_at_s : float;
  routing_recomputes : int;  (** incremental Dijkstra runs *)
  link_fault_drops : int;  (** packets lost to the dead link *)
  repair_passes : int;
  edges_repaired : int;
  tree_consistent : bool;
      (** final overlay is a tree and every edge agrees with unicast
          reverse paths *)
}

val link_flap : ?duration:Engine.Time.t -> ?seed:int64 -> unit -> flap_outcome
(** One down/up cycle of the core→fast-branch link under load: down at
    60 s, up at 90 s. The detour's two hops carry 250 Kbps each (ideal
    level 3). Default horizon 180 s.
    @raise Invalid_argument unless [duration] extends past 90 s. *)

(** {1 Router crash} *)

type crash_outcome = {
  receivers : flap_receiver list;
      (** [optimal_during] is 0 for the fast set — the crash kills the
          detour too, so the partition leaves no in-failure optimum;
          [recovery_s] counts from the router's recovery *)
  crash_at_s : float;
  recover_at_s : float;
  crash_drops : int;  (** packets drained from the dead router's queues *)
  crash_link_downs : int;
  crash_link_ups : int;
  per_link_fault_drops : ((Net.Addr.node_id * Net.Addr.node_id) * int) list;
      (** ((src, dst), drops) per simplex link with at least one drop,
          sorted — where the crash (and the outage it caused) actually
          bled packets *)
  evictions : int;
      (** receivers whose liveness lease expired while partitioned *)
  readmissions : int;  (** evicted receivers re-admitted after recovery *)
  routing_recomputes : int;
  repair_passes : int;
  edges_repaired : int;
  tree_consistent : bool;
}

val router_crash :
  ?duration:Engine.Time.t -> ?seed:int64 -> unit -> crash_outcome
(** Fail-stop crash of the fast-branch router on the flap topology at
    60 s: every incident link (including the detour's second hop) goes
    down atomically, queued packets drain into {!Net.Faults.crash_drops},
    and the router's forwarding state is wiped. Recovery at 90 s restores
    the links and regrafts the trees from the surviving joins. The 30 s
    outage outlives the receivers' liveness leases, so the outcome also
    shows the eviction/readmission cycle. Default horizon 200 s.
    @raise Invalid_argument unless [duration] extends past 90 s. *)

(** {1 Controller outage and failover} *)

type outage_receiver = {
  node : Net.Addr.node_id;
  optimal : int;
  level_at_fail : int;
  floor_level : int;  (** lowest subscription after the primary died *)
  unilateral_actions : int;
  resync_s : float option;
      (** seconds after failover until this receiver heard a suggestion
          again (500 ms resolution); [None] if it never did *)
  final_level : int;
}

type outage_outcome = {
  receivers : outage_receiver list;
  fail_at_s : float;
  failover_at_s : float;
  primary_suggestions : int;
  standby_suggestions : int;
  none_starved : bool;
      (** no receiver fell to level 0 while the controller was away *)
}

val controller_outage :
  ?duration:Engine.Time.t -> ?seed:int64 -> unit -> outage_outcome
(** The primary controller (at the source) stops at 60 s; a standby at
    the core node starts at 100 s and the receivers re-home to it.
    Default horizon 200 s.
    @raise Invalid_argument unless [duration] extends past 100 s. *)

(** {1 Lossy control plane} *)

type lossy_receiver = {
  node : Net.Addr.node_id;
  optimal : int;
  final_level : int;
  deviation : float;  (** time-weighted relative deviation from optimal *)
  suggestions_received : int;
  unilateral_actions : int;
}

type lossy_outcome = {
  receivers : lossy_receiver list;
  drop_fraction : float;
  delay_fraction : float;
  control_dropped : int;
  control_delayed : int;
  reports_received : int;
  suggestions_sent : int;
      (** prescriptions issued (first transmissions only) *)
  mean_deviation : float;
  reliable : bool;  (** whether reliable prescriptions were on *)
  prescriptions_delivered : int;
      (** prescriptions whose effect was applied at a receiver: fresh
          sequence numbers admitted (a retransmitted prescription counts
          once; duplicates are suppressed) *)
  retransmits : int;
  give_ups : int;
  acks_received : int;
  dup_suppressed : int;
      (** duplicate prescription deliveries suppressed by the receivers'
          sequence filter *)
  stale_suppressed : int;
}

val is_control : Net.Packet.arena -> Net.Packet.t -> bool
(** The classifier handed to {!Net.Faults.set_control_plane} (partially
    applied to the network's arena): receiver reports, controller
    suggestions, protocol ACKs, discovery probe traffic and the
    federation's {!Toposense.Federation.Domain_summary} packets (so a
    lossy burst in a federated world can also starve the parent's
    liveness lease). *)

val lossy_control :
  ?drop_fraction:float ->
  ?delay_fraction:float ->
  ?delay:Engine.Time.span ->
  ?duration:Engine.Time.t ->
  ?seed:int64 ->
  ?reliable:bool ->
  unit ->
  lossy_outcome
(** Runs Topology A with the given fractions of control packets silently
    dropped/delayed. With [reliable] (default false) prescriptions are
    ACKed and retransmitted, so most of what the lossy plane eats is
    recovered within the backoff cap. Defaults: 30% drop, no delay
    (500 ms when [delay_fraction] is set), 300 s horizon.
    @raise Invalid_argument as {!Net.Faults.set_control_plane} does. *)

(** {1 Controller partition} *)

type partition_receiver = {
  node : Net.Addr.node_id;
  optimal : int;
  pre_failure_level : int;  (** subscription just before the partition *)
  floor_level : int;
      (** lowest subscription from the partition to the end of the run *)
  fallback_s : float;  (** total time spent in RLM-fallback mode *)
  reconverge_s : float option;
      (** seconds after the heal until the subscription was back at the
          pre-partition level; [Some 0.] if it never fell below it *)
  unilateral_actions : int;
  final_level : int;
}

type partition_outcome = {
  receivers : partition_receiver list;
  down_at_s : float;
  up_at_s : float;
  retransmits : int;
  give_ups : int;  (** prescriptions abandoned after the backoff cap *)
  evictions : int;  (** leases expired during the partition *)
  readmissions : int;  (** receivers re-admitted after the heal *)
  stale_rejected : int;
  lease_suppressed : int;
      (** prescriptions withheld from evicted receivers *)
  unroutable_drops : int;
      (** control packets that died for want of a route to or from the
          isolated controller *)
  none_starved : bool;
      (** every receiver held at least the base layer throughout *)
  all_reconverged : bool;
      (** every receiver was back at its pre-partition level within
          three TopoSense intervals of the heal *)
}

val partition :
  ?duration:Engine.Time.t -> ?seed:int64 -> unit -> partition_outcome
(** Topology A with the controller on a dedicated stub node; its only
    link fails at 60 s and heals at 90 s. Runs with reliable
    prescriptions, the RLM fallback and a 5-interval lease. Default
    horizon 180 s.
    @raise Invalid_argument unless [duration] extends past 90 s. *)

(** {1 Global invariants}

    The oracles that {!churn_storm} and {!Chaos.run} check a run's end
    state against. *)

val routing_mismatches :
  live:Net.Routing.t ->
  fresh:Net.Routing.t ->
  nodes:int ->
  dsts:Net.Addr.node_id list ->
  int
(** The number of [(from, dst)] pairs, [dst] in [dsts] and [from <> dst]
    in [0 .. nodes - 1], whose next hop or distance in [live] differs
    from [fresh]. Reads destination by destination and reads no column
    outside [dsts]: on lazy tables, reading a column builds it. *)

val tree_mismatch :
  router:Multicast.Router.t ->
  fresh:Net.Routing.t ->
  nodes:int ->
  group:Net.Addr.group_id ->
  (int * int) option
(** [None] when [group]'s installed tree edges equal a fresh rebuild: the
    union of every member's reverse path to the group's source in
    [fresh]. Otherwise [Some (live, expected)], the two edge counts.
    [nodes] bounds each climb. *)

(** {1 Churn storm} *)

type storm_outcome = {
  nodes : int;
  links : int;  (** duplex links in the topology *)
  flaps : int;  (** flap cycles requested *)
  topology_events : int;
      (** effective link-down/link-up transitions that fired topology
          observers (overlapping flaps collapse; the final restore-all
          sweep is included) *)
  joins : int;  (** join calls, initial subscriptions included *)
  leaves : int;  (** leave calls *)
  routing_recomputes : int;
      (** per-destination routing-table updates actually performed; a
          non-incremental implementation would need
          [full_recompute_equiv] of them *)
  full_recompute_equiv : int;  (** [topology_events * nodes] *)
  repair_passes : int;  (** one per topology event *)
  edges_repaired : int;  (** tree edges cut by the bounded repair *)
  tables_consistent : bool;
      (** after the storm (all links restored) the live tables are
          bit-identical to a fresh {!Net.Routing.compute} — next hops
          and distances for every pair ({!routing_mismatches} is 0) *)
  tree_consistent : bool;
      (** the final tree's edges equal a fresh rebuild from the final
          membership ({!tree_mismatch} is [None]) *)
  events_dispatched : int;
  peak_heap : int;  (** backing-store high-water mark, tombstones included *)
  peak_live : int;  (** high-water mark of non-cancelled pending events *)
}

val churn_storm :
  ?fanout:int ->
  ?depth:int ->
  ?flaps:int ->
  ?churners:int ->
  ?duration:Engine.Time.t ->
  ?seed:int64 ->
  unit ->
  storm_outcome
(** Pure control-plane churn stress on {!Builders.kary}: [flaps] random
    link down/up cycles and [churners] leaves repeatedly leaving and
    re-joining, all completing 30 s before the horizon so in-flight
    grafts and leave timers settle; a restore-all sweep guarantees the
    final graph is pristine before the consistency checks run.
    Defaults: fanout 4, depth 3 (85 nodes), 60 flaps, 24 churners,
    600 s horizon. Deterministic per seed.
    @raise Invalid_argument on negative counts or a horizon under
    60 s. Test-only, with [flaps] and [churners]: the storm tests pin
    its recompute bounds and determinism at sizes no subcommand runs. *)
