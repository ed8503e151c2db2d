(** The receiver agent.

    Runs at a receiver node. It keeps the reception accounting
    ({!Reports.Receiver_stats}), sends periodic RTCP-like reports to the
    controller — each stamped with a {!Protocol} sequence number — and
    obeys the controller's suggestion packets, admitting them through the
    matching dup/stale filter so a duplicated or reordered prescription
    is applied at most once. With [params.reliable_prescriptions] every
    admitted prescription is ACKed back to its sender.

    When no valid in-sequence suggestion has arrived for
    [suggestion_timeout_intervals] TopoSense intervals (suggestions are
    droppable packets), the receiver makes unilateral decisions, as the
    paper's architecture prescribes. Two fallback machines exist:

    - the legacy watchdog (default): drop a layer on sustained high
      loss, probe one layer upward at a randomized period;
    - with [params.rlm_fallback], a full standalone RLM-style machine
      (mirroring {!Baseline.Rlm}'s join experiments): probes are timed
      join experiments with multiplicative per-layer timers and ±50%
      jitter, failed experiments back out and arm a {!Backoff} timer on
      the dropped layer, and the first fresh prescription to arrive
      resyncs the receiver — the controller's level is adopted outright
      and any running experiment is cancelled.

    One agent per node; it may subscribe to several sessions. *)

type t

val create :
  network:Net.Network.t ->
  router:Multicast.Router.t ->
  params:Params.t ->
  node:Net.Addr.node_id ->
  controller:Net.Addr.node_id ->
  unit ->
  t
(** Installs the packet handler on [node]. *)

val subscribe : t -> session:Traffic.Session.t -> initial_level:int -> unit
(** Joins the session at [initial_level] and starts reporting on it.
    Re-subscribing after {!unsubscribe} is allowed and resumes cleanly
    (the report sequence space keeps counting up, so the controller's
    dup/stale filter re-admits the receiver at once). *)

val unsubscribe : t -> session:int -> unit
(** Leaves all of the session's layer groups, stops reporting on it, and
    sends a goodbye so the controller removes this receiver from the
    session instead of keeping it on the books forever. Suggestions that
    still arrive for the session (computed from stale topology images)
    are ignored rather than re-joining the groups. *)

val start : t -> unit
(** Starts the periodic report and watchdog tasks. *)

val stop : t -> unit

val level : t -> session:int -> int
(** Current subscription level. *)

val set_level : t -> session:int -> level:int -> unit
(** Changes the subscription (joins/leaves layer groups and resets the
    per-layer accounting epochs). Exposed for tests and baselines. *)

val changes : t -> session:int -> (Engine.Time.t * int) list
(** Every subscription-level change, oldest first, as (time, new level).
    The initial subscribe is included. *)

val last_window_loss : t -> session:int -> float
(** Loss rate of the most recent report window (0 before the first
    report); what Fig. 9's loss trace samples. *)

val last_suggestion_at : t -> session:int -> Engine.Time.t option
(** When the last {e fresh} prescription for the session was admitted
    (subscription time before any has arrived); [None] if the session is
    unknown. The chaos harness uses this to assert every surviving
    receiver is re-prescribed within a bounded number of controller
    intervals after recovery. *)

val set_controller : t -> controller:Net.Addr.node_id -> unit
(** Re-points future reports at a different controller node — the
    failover step after a controller outage. Already-sent reports are
    unaffected; the watchdog keeps covering the gap until the new
    controller's suggestions arrive. *)

val controller : t -> Net.Addr.node_id

val suggestions_received : t -> int
(** Suggestion packets heard for subscribed sessions (fresh, duplicate
    and stale alike; strays for unsubscribed sessions are counted in
    {!stray_suggestions} instead). *)

val unilateral_actions : t -> int

val acks_sent : t -> int
(** Prescription ACKs sent (0 unless [params.reliable_prescriptions]). *)

val dup_suggestions : t -> int
(** Duplicate prescriptions suppressed (re-ACKed, never re-applied). *)

val stale_suggestions : t -> int
(** Reordered-stale prescriptions dropped. *)

val stray_suggestions : t -> int
(** Suggestions ignored because the session was unsubscribed. *)

val fallback_entries : t -> int
(** Times any session entered RLM-fallback mode. *)

val fallback_seconds : t -> session:int -> float
(** Total time the session has spent in fallback mode, including the
    current episode if one is open. *)

val node : t -> Net.Addr.node_id

val sessions : t -> Traffic.Session.t list
(** Currently subscribed sessions (unsubscribed ones excluded). *)
