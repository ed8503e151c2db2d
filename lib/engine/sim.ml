type event = {
  mutable at : Time.t;
  mutable seq : int;
  thunk : unit -> unit;
  mutable cancelled : bool;
  mutable queued : bool;
      (* Physically present in the pending queue (live or tombstoned).
         Cleared at dispatch and by the compaction sweep, so a reusable
         timer knows whether its record can be re-armed in place. *)
  mutable successor : event option;
      (* A periodic chain's handle cell points at its currently armed
         event, so cancelling the handle marks the in-heap event itself —
         which lets the compactor drop it. [None] for one-shot events. *)
}

type handle = H : event -> handle [@@unboxed]

type timer = { mutable cur : event }
(* A reusable timer wraps one preallocated event record (and the user
   callback, allocated once at [timer] creation). Re-arming after the
   event fired mutates the record in place — the steady-state path
   allocates nothing. Re-arming while the record is still physically
   queued (a pending arm being superseded, or a disarm tombstone awaiting
   its sweep) tombstones the old record and installs a fresh one, which
   is exactly [cancel] + [schedule_after]. *)

(* The pending-event store, behind the Event_queue.S contract. A direct
   variant (rather than a packed first-class module) keeps the default
   heap's hot path free of indirect calls. *)
type queue =
  | Q_heap of event Heap.t
  | Q_calendar of event Calendar.t * event
      (* the calendar's dummy sentinel rides along: [pop_if_key] returns
         it (physically) for "no equal-key successor", so the batched
         run loop tests with [==] instead of allocating an option *)

type t = {
  mutable clock : Time.t;
  queue : queue;
  root_rng : Prng.t;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable max_pending : int;
  mutable max_live_pending : int;
  mutable cancelled_pending : int;
  mutable batch_runs : bool;
      (* drain equal-timestamp runs with one clock write (default);
         off = the one-event-at-a-time reference loop. Observably
         identical either way — the toggle exists so the equivalence
         property can check exactly that. *)
}

let cmp_event a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let key_event e = Time.to_ns e.at

let create ?(seed = 42L) ?backend () =
  let backend =
    match backend with Some b -> b | None -> Event_queue.default ()
  in
  let queue =
    match backend with
    | Event_queue.Heap -> Q_heap (Heap.create ~cmp:cmp_event)
    | Event_queue.Calendar ->
        (* The sentinel never fires; the calendar only uses it to fill
           dead bucket slots without retaining real events. *)
        let dummy =
          { at = Time.zero; seq = -1; thunk = ignore; cancelled = true;
            queued = false; successor = None }
        in
        Q_calendar (Calendar.create ~cmp:cmp_event ~key:key_event ~dummy, dummy)
  in
  {
    clock = Time.zero;
    queue;
    root_rng = Prng.create ~seed;
    next_seq = 0;
    dispatched = 0;
    max_pending = 0;
    max_live_pending = 0;
    cancelled_pending = 0;
    batch_runs = true;
  }

let backend t =
  match t.queue with
  | Q_heap _ -> Event_queue.Heap
  | Q_calendar _ -> Event_queue.Calendar

let set_batch_runs t b = t.batch_runs <- b
let batch_runs t = t.batch_runs

let q_length t =
  match t.queue with
  | Q_heap q -> Heap.length q
  | Q_calendar (q, _) -> Calendar.length q

let q_is_empty t =
  match t.queue with
  | Q_heap q -> Heap.is_empty q
  | Q_calendar (q, _) -> Calendar.is_empty q

let q_push t ev =
  match t.queue with
  | Q_heap q -> Heap.push q ev
  | Q_calendar (q, _) -> Calendar.push q ev

let q_peek_exn t =
  match t.queue with
  | Q_heap q -> Heap.peek_exn q
  | Q_calendar (q, _) -> Calendar.peek_min_exn q

let q_pop_exn t =
  match t.queue with
  | Q_heap q -> Heap.pop_exn q
  | Q_calendar (q, _) -> Calendar.pop_min_exn q

let q_filter t keep =
  match t.queue with
  | Q_heap q -> Heap.filter q keep
  | Q_calendar (q, _) -> Calendar.filter q keep

let now t = t.clock

let rng t ~label = Prng.split t.root_rng ~label

(* High-water marks, updated after every push. *)
let note_pushed t =
  let len = q_length t in
  if len > t.max_pending then t.max_pending <- len;
  let live = len - t.cancelled_pending in
  if live > t.max_live_pending then t.max_live_pending <- live

let schedule_event t at thunk =
  if Time.(at < t.clock) then
    invalid_arg
      (Format.asprintf "Sim.schedule_at: %a is before now (%a)" Time.pp at
         Time.pp t.clock);
  let ev =
    { at; seq = t.next_seq; thunk; cancelled = false; queued = true;
      successor = None }
  in
  t.next_seq <- t.next_seq + 1;
  q_push t ev;
  note_pushed t;
  ev

let schedule_at t at thunk = H (schedule_event t at thunk)

let schedule_after t span thunk = schedule_at t (Time.add t.clock span) thunk

(* Lazy deletion: cancelled events stay in the queue as tombstones until
   they either surface at the root or outnumber the live events, at which
   point one O(n) sweep drops them all — long runs that cancel many
   [every] chains neither grow the queue nor retain the dead closures. *)
let compact_threshold = 64

(* Tombstone a queued event once. Handle cells of [every] chains carry
   [seq = -1] and never enter the queue, so they must not count toward
   the tombstone population. *)
let tombstone t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    if ev.seq >= 0 then t.cancelled_pending <- t.cancelled_pending + 1
  end

let rec mark_cancelled t ev =
  tombstone t ev;
  match ev.successor with None -> () | Some s -> mark_cancelled t s

let maybe_compact t =
  if
    t.cancelled_pending > compact_threshold
    && 2 * t.cancelled_pending > q_length t
  then begin
    q_filter t (fun e ->
        if e.cancelled then begin
          (* The record leaves the backing store here, not at dispatch:
             without this a disarmed reusable timer could never be
             re-armed in place again. *)
          e.queued <- false;
          false
        end
        else true);
    t.cancelled_pending <- 0
  end

let cancel t (H ev) =
  mark_cancelled t ev;
  maybe_compact t

(* ---------- reusable timers ---------- *)

let timer _t f =
  {
    cur =
      { at = Time.zero; seq = 0; thunk = f; cancelled = true; queued = false;
        successor = None };
  }

let arm_at t tm at =
  if Time.(at < t.clock) then
    invalid_arg
      (Format.asprintf "Sim.arm_at: %a is before now (%a)" Time.pp at Time.pp
         t.clock);
  let ev = tm.cur in
  let ev =
    if ev.queued then begin
      (* Superseding a pending arm (or a disarm tombstone still awaiting
         its sweep): behave exactly like [cancel] + a fresh schedule. *)
      tombstone t ev;
      maybe_compact t;
      let e =
        { at; seq = t.next_seq; thunk = ev.thunk; cancelled = false;
          queued = true; successor = None }
      in
      tm.cur <- e;
      e
    end
    else begin
      ev.at <- at;
      ev.seq <- t.next_seq;
      ev.cancelled <- false;
      ev.queued <- true;
      ev
    end
  in
  t.next_seq <- t.next_seq + 1;
  q_push t ev;
  note_pushed t

let arm_after t tm span = arm_at t tm (Time.add t.clock span)

let disarm t tm = cancel t (H tm.cur)

(* A periodic task reuses one timer: the tick closure and the event
   record are allocated once, and each firing re-arms the record in
   place. The handle must still outlive the task, so it wraps a
   forwarding cell whose [successor] points at the timer's record. *)
let every t ?start ?jitter ~period f =
  if period <= 0 then invalid_arg "Sim.every: period <= 0";
  let first = match start with Some s -> s | None -> Time.add t.clock period in
  let cell =
    { at = first; seq = -1; thunk = ignore; cancelled = false; queued = false;
      successor = None }
  in
  let displaced base =
    match jitter with
    | None -> base
    | Some (g, j) ->
        let half = j *. Time.span_to_sec_f period in
        let d = Prng.uniform g ~lo:(-.half) ~hi:half in
        (* Round to nearest: truncation toward zero would bias the drawn
           displacement toward 0 ns. *)
        let ns = Time.to_ns base + int_of_float (Float.round (d *. 1e9)) in
        Time.of_ns (Stdlib.max (Time.to_ns t.clock) ns)
  in
  let nominal = ref first in
  let rec tick () =
    f ();
    if not cell.cancelled then begin
      nominal := Time.add !nominal period;
      arm_at t tm (displaced !nominal);
      cell.successor <- Some tm.cur;
      (* Forward a cancellation that raced the re-arm. *)
      if cell.cancelled then tombstone t tm.cur
    end
  and tm =
    {
      cur =
        { at = first; seq = 0; thunk = tick; cancelled = true; queued = false;
          successor = None };
    }
  in
  arm_at t tm (displaced first);
  cell.successor <- Some tm.cur;
  if cell.cancelled then tombstone t tm.cur;
  H cell

(* Dispatch an event that is NOT the first of its time-run: the clock
   was already set by the run opener, so only the bookkeeping and the
   thunk remain. *)
let dispatch_in_run t ev =
  ev.queued <- false;
  if ev.cancelled then t.cancelled_pending <- max 0 (t.cancelled_pending - 1)
  else begin
    t.dispatched <- t.dispatched + 1;
    ev.thunk ()
  end

let dispatch t ev =
  t.clock <- ev.at;
  dispatch_in_run t ev

let step t =
  if q_is_empty t then false
  else begin
    dispatch t (q_pop_exn t);
    true
  end

(* The reference loop: one generic pop, one clock write, one horizon
   check per event. Kept callable (batch_runs = false) as the oracle the
   batched loops are property-tested against. *)
let run_until_unbatched t horizon =
  let rec loop () =
    if (not (q_is_empty t)) && Time.((q_peek_exn t).at <= horizon) then begin
      dispatch t (q_pop_exn t);
      loop ()
    end
  in
  loop ()

(* Batched loops: events at equal timestamps form a run, and a run is
   drained with a single clock write and a single horizon check — the
   rest of the run cannot cross a horizon its opener did not. Each loop
   is monomorphic in its backend, so the per-event cost also sheds the
   [queue]-variant dispatch the generic helpers pay. Thunks may schedule
   new events at the current instant; the per-iteration peek picks them
   up, exactly as the reference loop would. Dispatch order is (time,
   seq) in both — batching changes which loop pops, never what. *)
let run_until_heap t q horizon =
  let continue = ref true in
  while !continue do
    if Heap.is_empty q then continue := false
    else begin
      let ev = Heap.peek_exn q in
      if Time.(ev.at <= horizon) then begin
        ignore (Heap.pop_exn q : event);
        (* The run key must be read before the thunk runs: dispatching a
           reusable timer may re-arm it, which mutates [ev.at] in place
           to the *next* firing time. *)
        let at = ev.at in
        dispatch t ev;
        let in_run = ref true in
        while !in_run do
          if Heap.is_empty q then in_run := false
          else begin
            let nxt = Heap.peek_exn q in
            if Time.equal nxt.at at then begin
              ignore (Heap.pop_exn q : event);
              dispatch_in_run t nxt
            end
            else in_run := false
          end
        done
      end
      else continue := false
    end
  done

let run_until_calendar t q dummy horizon =
  let continue = ref true in
  while !continue do
    if Calendar.is_empty q then continue := false
    else begin
      let ev = Calendar.peek_min_exn q in
      if Time.(ev.at <= horizon) then begin
        ignore (Calendar.pop_min_exn q : event);
        (* Key read before the thunk runs — dispatching a reusable timer
           re-arms it by mutating [ev.at] in place. The pop set the
           calendar's lastkey to this run's key, which is exactly the
           precondition [pop_if_key] needs: each equal-key successor
           comes off the head of one sorted bucket in O(1), no day
           scan. *)
        let k = Time.to_ns ev.at in
        dispatch t ev;
        let in_run = ref true in
        while !in_run do
          let nxt = Calendar.pop_if_key q ~key:k ~none:dummy in
          if nxt == dummy then in_run := false else dispatch_in_run t nxt
        done
      end
      else continue := false
    end
  done

let run_until t horizon =
  (if not t.batch_runs then run_until_unbatched t horizon
   else
     match t.queue with
     | Q_heap q -> run_until_heap t q horizon
     | Q_calendar (q, dummy) -> run_until_calendar t q dummy horizon);
  t.clock <- Time.max t.clock horizon

let pending t = q_length t

let live_pending t = q_length t - t.cancelled_pending

let max_pending t = t.max_pending

let max_live_pending t = t.max_live_pending

let events_dispatched t = t.dispatched

(* Backend telemetry for the bench rows: the calendar's resize traffic
   is the allocation suspect its scratch-reuse work targets; the heap
   reports zeros. *)
let queue_resizes t =
  match t.queue with Q_heap _ -> 0 | Q_calendar (q, _) -> Calendar.resizes q

let queue_recycled t =
  match t.queue with Q_heap _ -> 0 | Q_calendar (q, _) -> Calendar.recycled q
