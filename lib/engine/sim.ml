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

type t = {
  mutable clock : Time.t;
  queue : event Heap.t;
  root_rng : Prng.t;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable max_pending : int;
  mutable max_live_pending : int;
  mutable cancelled_pending : int;
}

let cmp_event a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 42L) () =
  {
    clock = Time.zero;
    queue = Heap.create ~cmp:cmp_event;
    root_rng = Prng.create ~seed;
    next_seq = 0;
    dispatched = 0;
    max_pending = 0;
    max_live_pending = 0;
    cancelled_pending = 0;
  }

let now t = t.clock

let rng t ~label = Prng.split t.root_rng ~label

(* High-water marks, updated after every push. *)
let note_pushed t =
  let len = Heap.length t.queue in
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
  Heap.push t.queue ev;
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
    && 2 * t.cancelled_pending > Heap.length t.queue
  then begin
    Heap.filter t.queue (fun e ->
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
  Heap.push t.queue ev;
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

(* Pop while the head is at or before the horizon. A thunk that
   schedules at the current instant is picked up by the next peek, in
   (time, seq) order like everything else. The clock is written before
   the thunk runs: dispatching a reusable timer may re-arm it, which
   mutates [ev.at] in place to its next firing time. The loop is a
   tail-recursive function, not a [while]: OCaml 5 runs signal handlers
   at poll points, and a sample taken at a [while] back-edge poll shows
   no frame of this module, which costs the benchmark's sampling
   profiler a few percent of its coverage. *)
let run_until t horizon =
  let q = t.queue in
  let rec loop () =
    if (not (Heap.is_empty q)) && Time.((Heap.peek_exn q).at <= horizon)
    then begin
      let ev = Heap.pop_exn q in
      t.clock <- ev.at;
      ev.queued <- false;
      if ev.cancelled then
        t.cancelled_pending <- max 0 (t.cancelled_pending - 1)
      else begin
        t.dispatched <- t.dispatched + 1;
        ev.thunk ()
      end;
      loop ()
    end
  in
  loop ();
  t.clock <- Time.max t.clock horizon

let pending t = Heap.length t.queue

let live_pending t = Heap.length t.queue - t.cancelled_pending

let max_pending t = t.max_pending

let max_live_pending t = t.max_live_pending

let events_dispatched t = t.dispatched
