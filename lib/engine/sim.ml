type event = {
  thunk : unit -> unit;
  mutable cancelled : bool;
  mutable queued : bool;
      (* Physically present in the pending queue (live or tombstoned).
         Cleared at dispatch and by the compaction sweep. Only a queued
         record counts as a tombstone when cancelled, and only an
         unqueued one is re-armed in place. *)
}
(* Four words with the header. The instant and the scheduling sequence
   number are the queue's keys and live in its flat arrays, not here. *)

type handle = H : event -> handle [@@unboxed]

type timer = { mutable cur : event }
(* A reusable timer wraps one preallocated event record (and the user
   callback, allocated once at [timer] creation). Re-arming after the
   event fired mutates the record in place — the steady-state path
   allocates nothing. Re-arming while the record is still physically
   queued (a pending arm being superseded, or a disarm tombstone awaiting
   its sweep) tombstones the old record and installs a fresh one, which
   is exactly [cancel] + [schedule_after]. *)

(* The pending events form a binary min-heap on [(instant, seq)], held
   in three arrays of one length: slot [i] of [ats], [seqs] and [evs]
   is one entry. A comparison is then an int load and compare, not a
   closure call over two boxed records. Arrays of one size also let the
   allocator reuse the chunks that a resize frees. *)
type t = {
  mutable clock : Time.t;
  mutable ats : int array;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;
  root_rng : Prng.t;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable max_pending : int;
  mutable max_live_pending : int;
  mutable cancelled_pending : int;
}

(* Vacated [evs] slots point here, so the queue never retains the thunk
   of a dispatched or swept event. *)
let vacant = { thunk = ignore; cancelled = true; queued = false }

let create ?(seed = 42L) () =
  {
    clock = Time.zero;
    ats = [||];
    seqs = [||];
    evs = [||];
    size = 0;
    root_rng = Prng.create ~seed;
    next_seq = 0;
    dispatched = 0;
    max_pending = 0;
    max_live_pending = 0;
    cancelled_pending = 0;
  }

let now t = t.clock

let rng t ~label = Prng.split t.root_rng ~label

(* ---------- the event heap ---------- *)

(* Sifts carry the displaced entry in registers ("hole" technique): one
   store per array per level instead of a swap. The unsafe accesses are
   bounds-proven — every index is < size <= capacity. Keys are unique,
   so the pop order does not depend on the heap's shape. A tie on the
   instant is rare, so [seqs] is read only then. *)
let[@inline] set t i at seq ev =
  Array.unsafe_set t.ats i at;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.evs i ev

let[@inline] move t ~src ~dst =
  set t dst (Array.unsafe_get t.ats src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.evs src)

(* Moves parents down one level while the key [(at, seq)] sorts before
   them, starting from the hole at [i]; returns the key's slot. *)
let rec hole_up t at seq i =
  if i = 0 then 0
  else begin
    let p = (i - 1) / 2 in
    let pat = Array.unsafe_get t.ats p in
    if at < pat || (at = pat && seq < Array.unsafe_get t.seqs p) then begin
      move t ~src:p ~dst:i;
      hole_up t at seq p
    end
    else i
  end

let rec sift_down t at seq ev i =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i at seq ev
  else begin
    let r = l + 1 in
    let c =
      if r < t.size then
        let lat = Array.unsafe_get t.ats l and rat = Array.unsafe_get t.ats r in
        if
          rat < lat
          || (rat = lat
             && Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l)
        then r
        else l
      else l
    in
    let cat = Array.unsafe_get t.ats c in
    if cat < at || (cat = at && Array.unsafe_get t.seqs c < seq) then begin
      move t ~src:c ~dst:i;
      sift_down t at seq ev c
    end
    else set t i at seq ev
  end

let min_capacity = 16

let resize t cap =
  let ats = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let evs = Array.make cap vacant in
  Array.blit t.ats 0 ats 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.evs 0 evs 0 t.size;
  t.ats <- ats;
  t.seqs <- seqs;
  t.evs <- evs

(* Capacity doubles when full and halves once only a quarter of it is
   live. *)
let maybe_shrink t =
  let cap = Array.length t.ats in
  if cap > min_capacity && t.size * 4 <= cap then resize t (cap / 2)

(* High-water marks, updated by every push. *)
let note_pushed t =
  let len = t.size in
  if len > t.max_pending then t.max_pending <- len;
  let live = len - t.cancelled_pending in
  if live > t.max_live_pending then t.max_live_pending <- live

(* The record is stored before the sift, and again only if the sift
   moved it. Storing a freshly allocated record into the array is the
   costliest step of a push (the write barrier remembers it), and
   [hole_up] polls on entry. OCaml 5 runs signal handlers at poll
   points, so a sampling profiler's tick that lands in that store is
   taken here, with this module on the stack, not at the caller's next
   poll. *)
let push t at seq ev =
  let cap = Array.length t.ats in
  if t.size = cap then resize t (if cap = 0 then min_capacity else 2 * cap);
  let i = t.size in
  t.size <- i + 1;
  note_pushed t;
  Array.unsafe_set t.evs i ev;
  let j = hole_up t at seq i in
  Array.unsafe_set t.ats j at;
  Array.unsafe_set t.seqs j seq;
  if j <> i then Array.unsafe_set t.evs j ev

(* Removes the root entry, which the caller has read. *)
let remove_root t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then
    sift_down t (Array.unsafe_get t.ats n) (Array.unsafe_get t.seqs n)
      (Array.unsafe_get t.evs n) 0;
  Array.unsafe_set t.evs n vacant;
  maybe_shrink t

(* Queues an unqueued record at [at] under the next sequence number. *)
let enqueue t at ev =
  ev.queued <- true;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t (at : Time.t :> int) seq ev

let check_not_past t ~what at =
  if Time.(at < t.clock) then
    invalid_arg
      (Format.asprintf "%s: %a is before now (%a)" what Time.pp at Time.pp
         t.clock)

let schedule_at t at thunk =
  check_not_past t ~what:"Sim.schedule_at" at;
  let ev = { thunk; cancelled = false; queued = false } in
  enqueue t at ev;
  H ev

let schedule_after t span thunk = schedule_at t (Time.add t.clock span) thunk

(* Lazy deletion: cancelled events stay in the queue as tombstones until
   they either surface at the root or outnumber the live events, at which
   point one O(n) sweep drops them all — long runs that cancel many
   [every] chains neither grow the queue nor retain the dead closures. *)
let compact_threshold = 64

(* Cancel a record once. It becomes a counted tombstone only if it is
   queued: one that already fired or was swept just keeps the flag,
   which is what stops a periodic chain from re-arming. *)
let tombstone t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    if ev.queued then t.cancelled_pending <- t.cancelled_pending + 1
  end

(* The sweep: an in-place filter, then a bottom-up (Floyd) heapify. *)
let sweep t =
  let n = t.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let ev = Array.unsafe_get t.evs i in
    if ev.cancelled then
      (* The record leaves the queue here, not at dispatch: without
         this a disarmed reusable timer could never be re-armed in
         place again. *)
      ev.queued <- false
    else begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  Array.fill t.evs !kept (n - !kept) vacant;
  t.size <- !kept;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t (Array.unsafe_get t.ats i) (Array.unsafe_get t.seqs i)
      (Array.unsafe_get t.evs i) i
  done;
  t.cancelled_pending <- 0;
  maybe_shrink t

let maybe_compact t =
  if
    t.cancelled_pending > compact_threshold
    && 2 * t.cancelled_pending > t.size
  then sweep t

let cancel t (H ev) =
  tombstone t ev;
  maybe_compact t

(* ---------- reusable timers ---------- *)

let timer _t f = { cur = { thunk = f; cancelled = true; queued = false } }

let arm_at t tm at =
  check_not_past t ~what:"Sim.arm_at" at;
  let ev = tm.cur in
  if ev.queued then begin
    (* Superseding a pending arm (or a disarm tombstone still awaiting
       its sweep): behave exactly like [cancel] + a fresh schedule. *)
    tombstone t ev;
    maybe_compact t;
    let e = { thunk = ev.thunk; cancelled = false; queued = false } in
    tm.cur <- e;
    enqueue t at e
  end
  else begin
    ev.cancelled <- false;
    enqueue t at ev
  end

let arm_after t tm span = arm_at t tm (Time.add t.clock span)

let disarm t tm = cancel t (H tm.cur)

(* A periodic task is one event record and one tick closure, allocated
   once. The tick re-arms the record only after it has been popped, so
   the re-arm is always in place and the record itself is the handle:
   cancelling it either tombstones the queued firing or, from inside
   the callback, stops the re-arm. *)
let every t ?start ?jitter ~period f =
  if period <= 0 then invalid_arg "Sim.every: period <= 0";
  let first = match start with Some s -> s | None -> Time.add t.clock period in
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
  let rec ev = { thunk = tick; cancelled = false; queued = false }
  and tick () =
    f ();
    if not ev.cancelled then begin
      nominal := Time.add !nominal period;
      (* Never in the past: [displaced] clamps to now, and without
         jitter this firing was at the previous nominal instant. *)
      enqueue t (displaced !nominal) ev
    end
  in
  let at = displaced first in
  check_not_past t ~what:"Sim.every" at;
  enqueue t at ev;
  H ev

(* Pop while the head is at or before the horizon. A thunk that
   schedules at the current instant is picked up by the next peek, in
   (time, seq) order like everything else. The loop is a tail-recursive
   function, not a [while]: OCaml 5 runs signal handlers at poll
   points, and a sample taken at a [while] back-edge poll shows no frame
   of this module, which costs the benchmark's sampling profiler a few
   percent of its coverage. *)
let run_until t horizon =
  let horizon_ns = (horizon : Time.t :> int) in
  let rec loop () =
    if t.size > 0 && Array.unsafe_get t.ats 0 <= horizon_ns then begin
      let at = Array.unsafe_get t.ats 0 and ev = Array.unsafe_get t.evs 0 in
      remove_root t;
      t.clock <- Time.of_ns at;
      ev.queued <- false;
      if ev.cancelled then t.cancelled_pending <- t.cancelled_pending - 1
      else begin
        t.dispatched <- t.dispatched + 1;
        ev.thunk ()
      end;
      loop ()
    end
  in
  loop ();
  t.clock <- Time.max t.clock horizon

let pending t = t.size

let live_pending t = t.size - t.cancelled_pending

let max_pending t = t.max_pending

let max_live_pending t = t.max_live_pending

let events_dispatched t = t.dispatched
