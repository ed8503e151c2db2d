(** The discrete-event simulation loop.

    A simulator owns a clock, an event queue and the run's root PRNG.
    Events are thunks scheduled at absolute instants; events at the same
    instant fire in scheduling order (FIFO), which makes runs fully
    deterministic for a given seed.

    The pending-event store is pluggable behind {!Event_queue.S}: the
    default binary heap ({!Heap}), or the ns-style calendar queue
    ({!Calendar}) for workloads whose pending set grows large. Both
    backends dispatch in exactly the same [(time, seq)] order, so a
    run's trace — and therefore every figure and metric — is independent
    of the backend chosen; only wall time changes.

    Each simulator instance is single-threaded by design: the workloads
    in this project are bound by event dispatch, not by per-event
    computation, and determinism is a hard requirement for the
    experiments. Parallelism lives one level up — {!Scenarios.Sweep}
    fans whole independent simulations across domains. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : ?seed:int64 -> ?backend:Event_queue.backend -> unit -> t
(** A fresh simulator at time {!Time.zero}. Default seed is [42L];
    default backend is {!Event_queue.default} (the heap, unless
    overridden by [TOPOSENSE_SCHEDULER] or {!Event_queue.set_default}). *)

val backend : t -> Event_queue.backend
(** Which event-queue backend this simulator runs on. *)

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
    @raise Invalid_argument if the instant is in the past. *)

val arm_after : t -> timer -> Time.span -> unit
(** Arm the timer to fire [span] after the current time. *)

val disarm : t -> timer -> unit
(** Cancel the pending firing, if any. Disarming an unarmed timer is a
    no-op. The timer can be re-armed afterwards. *)

val every :
  t -> ?start:Time.t -> ?jitter:(Prng.t * float) -> period:Time.span ->
  (unit -> unit) -> handle
(** [every sim ~period f] runs [f] at [start] (default: [now + period]) and
    then every [period], until the returned handle is cancelled. With
    [~jitter:(rng, j)] each firing is displaced by a uniform draw in
    [±j·period], rounded to the nearest nanosecond. Cancelling the handle
    stops all future firings. *)

val run_until : t -> Time.t -> unit
(** Dispatch events in order until the queue is empty or the next event is
    after the horizon; the clock ends at the horizon.

    Events sharing a timestamp form a {e run}, and by default the loop
    drains a whole run batched: one clock write and one horizon check
    for the run, with the remaining events popped on a backend fast path
    (the calendar's equal-key bucket head in O(1); a heap peek-ahead).
    Batched and unbatched dispatch are observably identical — same
    [(time, seq)] order, same clock values seen by thunks, same
    counters; see {!set_batch_runs}. *)

val set_batch_runs : t -> bool -> unit
(** Toggle batched run dispatch in {!run_until} (default [true]).
    [false] selects the one-event-at-a-time reference loop; the
    equivalence property in the test suite runs both and asserts
    identical traces, which is the only intended use. *)

val batch_runs : t -> bool
(** Whether {!run_until} currently batches equal-timestamp runs. *)

val step : t -> bool
(** Dispatch the single next event. Returns [false] when the queue is
    empty. *)

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

val queue_resizes : t -> int
(** Calendar-backend bucket-array resizes so far; [0] on the heap. The
    bench's engine rows record it so the resize-allocation trim stays
    pinned. *)

val queue_recycled : t -> int
(** Calendar-backend resizes served from a parked bucket generation;
    [0] on the heap. *)
