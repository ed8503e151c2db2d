(** The discrete-event simulation loop.

    A simulator owns a clock, the pending events and the run's root
    PRNG. Events are thunks scheduled at absolute instants and dispatch
    in [(time, seq)] order: events at the same instant fire in
    scheduling order (FIFO), which makes runs fully deterministic for a
    given seed.

    The pending events are a binary min-heap of runs. A run is a FIFO of
    events at one instant, linked slot to slot through the event
    records, and a heap entry is two ints: the run's instant and the
    slot of its head. A push at the instant of the push before it
    appends to that push's run while that event is still queued,
    without touching the heap; any other push starts a run. A pop from
    a run that still holds events moves its next event to the head in
    place, without a sift.
    A run grows only while it is the newest, so the runs at one instant
    hold disjoint ranges of sequence numbers and the heap orders them
    by their heads. Most pushes of a multicast wave or of timer chains
    that share a period land at the instant of the push before, so
    most of their events never reach the heap's sifts.

    Cancellation is lazy — a cancelled event stays in its run as a
    tombstone until it surfaces or until tombstones outnumber live
    events, when one O(n) sweep drops them. The event counts
    ({!pending}, {!max_pending} and the live ones) count events, not
    runs.

    Each simulator instance is single-threaded by design: the workloads
    in this project are bound by event dispatch, not by per-event
    computation, and determinism is a hard requirement for the
    experiments. Parallelism lives one level up — {!Scenarios.Sweep}
    fans whole independent simulations across domains. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : ?seed:int64 -> unit -> t
(** A fresh simulator at time {!Time.zero}. Default seed is [42L]. *)

val now : t -> Time.t

val rng : t -> label:string -> Prng.t
(** A named PRNG stream for a component. Derived from the run seed; the
    same label always yields the same stream within a run. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** Schedule a thunk at an absolute instant.
    @raise Invalid_argument if the instant is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** Schedule a thunk [span] after the current time. *)

val cancel : t -> handle -> unit
(** Cancel a pending event. Cancelling an already-fired or already-cancelled
    event is a no-op. *)

type timer
(** A reusable one-shot timer: the event record and the callback are
    allocated once, at {!timer} creation, and re-armed in place — the
    steady-state arm/fire cycle allocates nothing. The ns-style
    counterpart of reusable [Event] objects. *)

val timer : t -> (unit -> unit) -> timer
(** [timer sim f] is a disarmed timer that runs [f] each time it fires.
    Create once per recurring concern (a link's serializer, a source's
    emit loop), then {!arm_after} from the callback to repeat. *)

val arm_at : t -> timer -> Time.t -> unit
(** Arm the timer to fire at an absolute instant. Arming a timer that is
    already armed supersedes the pending firing (equivalent to {!cancel}
    followed by a fresh schedule, including its effect on the dispatch
    counters and tombstone population).
    @raise Invalid_argument if the instant is in the past. Test-only: the
    timer tests and the reusable-timer property arm at absolute
    instants. *)

val arm_after : t -> timer -> Time.span -> unit
(** Arm the timer to fire [span] after the current time. *)

val disarm : t -> timer -> unit
(** Cancel the pending firing, if any. Disarming an unarmed timer is a
    no-op. The timer can be re-armed afterwards. Test-only: the timer
    tests pin these semantics for the scheduler's reusable timers. *)

val every :
  t -> ?start:Time.t -> ?jitter:(Prng.t * float) -> period:Time.span ->
  (unit -> unit) -> handle
(** [every sim ~period f] runs [f] at [start] (default: [now + period]) and
    then every [period], until the returned handle is cancelled. With
    [~jitter:(rng, j)] each firing is displaced by a uniform draw in
    [±j·period], rounded to the nearest nanosecond. Cancelling the handle
    stops all future firings. *)

val run_until : t -> Time.t -> unit
(** Dispatch events in order while the next one is at or before the
    horizon, then leave the clock at the horizon (or where it was, if
    that is later). Events a thunk schedules at or before the horizon —
    including at the current instant — fire in the same call. *)

val pending : t -> int
(** Number of events still queued, {e including} cancelled tombstones
    awaiting their lazy-deletion sweep. *)

val live_pending : t -> int
(** Number of queued events that will actually fire: {!pending} minus the
    cancelled tombstones. *)

val max_pending : t -> int
(** High-water mark of {!pending} over the run. This is the
    backing-store high-water mark — it counts tombstones, so it bounds
    queue memory, not outstanding work; see {!max_live_pending} for the
    latter. *)

val max_live_pending : t -> int
(** High-water mark of {!live_pending} over the run — the peak number of
    events that were genuinely outstanding at once. *)

val events_dispatched : t -> int
(** Total events fired since creation; for tests and reporting. *)
