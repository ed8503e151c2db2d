type event = {
  thunk : unit -> unit;
  mutable key : int;
      (* [seq lsl 1 lor c], where [c] is the cancelled bit. [seq] is the
         scheduling sequence number while the record is physically
         present in the pending queue (live or tombstoned), [-1] once it
         has left it: set by every push, cleared at dispatch and by the
         compaction sweep. So [key >= 0] means queued. Only a queued
         record counts as a tombstone when cancelled, and only an
         unqueued one is re-armed in place. *)
  mutable next : int;
      (* While queued: the slot of the next event of its run, [-1] at
         the run's tail. *)
}
(* Four words with the header. The instant is the queue's key and lives
   in its flat [ats] array, not here. *)

let unqueued = -2 (* the key of a live record with [seq = -1] *)

let[@inline] cancelled ev = ev.key land 1 = 1

let[@inline] queued ev = ev.key >= 0

(* Leaves the queue, keeping the cancelled bit. *)
let[@inline] dequeue ev = ev.key <- ev.key lor unqueued

type handle = H : event -> handle [@@unboxed]

type timer = { mutable cur : event }
(* A reusable timer wraps one preallocated event record (and the user
   callback, allocated once at [timer] creation). Re-arming after the
   event fired mutates the record in place — the steady-state path
   allocates nothing. Re-arming while the record is still physically
   queued (a pending arm being superseded, or a disarm tombstone awaiting
   its sweep) tombstones the old record and installs a fresh one, which
   is exactly [cancel] + [schedule_after]. *)

(* The pending events form a binary min-heap of runs that moves only
   ints. A run is a FIFO of events at one instant: its slots in the slot
   table [evs] are linked through the records' [next]. Entry [i] of the
   heap is [ats.(i)], the run's instant, and [ids.(i)], the slot of its
   head; the head record holds the [seq] that breaks ties. [runs]
   counts the heap entries and [pending] the queued events, so the
   first [runs] entries of [ids] are the heap and [ids.(pending ..
   cap-1)] lists the free slots; the entries between are unused. A
   record is written into [evs] once per push and reset to [vacant]
   once per pop or sweep. The three arrays share one length, so the
   allocator can reuse the chunks a resize frees.

   [tail] is the slot of the previous push and [tail_at] its instant
   ([-1] after a shrink, which renumbers the slots). While that slot
   still holds a record, the record is queued and ends the newest run: a
   push at [tail_at] appends to that run, and any other push starts a
   run. A run only grows while it is the newest, so each run holds a
   contiguous range of sequence numbers and the runs at one instant
   hold disjoint ones: ordering runs by their heads' [seq] keeps the
   [(time, seq)] order. *)
type t = {
  mutable clock : Time.t;
  mutable ats : int array;
  mutable ids : int array;
  mutable evs : event array;
  mutable runs : int;
  mutable pending : int;
  mutable tail : int;
  mutable tail_at : int;
  root_rng : Prng.t;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable max_pending : int;
  mutable max_live_pending : int;
  mutable cancelled_pending : int;
}

(* Free [evs] slots point here, so the queue never retains the thunk of
   a dispatched or swept event. *)
let vacant = { thunk = ignore; key = unqueued lor 1; next = -1 }

let create ?(seed = 42L) () =
  {
    clock = Time.zero;
    ats = [||];
    ids = [||];
    evs = [||];
    runs = 0;
    pending = 0;
    tail = -1;
    tail_at = -1;
    root_rng = Prng.create ~seed;
    next_seq = 0;
    dispatched = 0;
    max_pending = 0;
    max_live_pending = 0;
    cancelled_pending = 0;
  }

let now t = t.clock

let rng t ~label = Prng.split t.root_rng ~label

(* ---------- the run heap ---------- *)

(* Sifts carry the displaced entry in registers ("hole" technique): one
   store per array per level instead of a swap. The unsafe accesses are
   bounds-proven — every heap index is < runs <= pending <= capacity,
   and every slot id is < capacity. Keys are unique, so the pop order
   does not depend on the heap's shape. A head record's key is read
   only on a tie on the instant. Ties between events are common (a
   multicast wave fans one packet out over links of equal timing and
   timer chains share their periods, so 94% to 99.8% of pushes land at
   the previous push's instant on three of the four benchmark
   workloads), but those pushes append to a run and never reach the
   heap. *)
let[@inline] key_at t i =
  (Array.unsafe_get t.evs (Array.unsafe_get t.ids i)).key

let[@inline] set t i at id =
  Array.unsafe_set t.ats i at;
  Array.unsafe_set t.ids i id

let[@inline] move t ~src ~dst =
  set t dst (Array.unsafe_get t.ats src) (Array.unsafe_get t.ids src)

(* Moves parents down one level while the instant [at] sorts before
   them, from the hole at [i], then stores the entry [(at, id)]. Only a
   push sifts up, and the run it starts holds the largest sequence
   number ever drawn, so on a tied instant the parent always sorts
   first. *)
let rec hole_up t at id i =
  let p = (i - 1) / 2 in
  if i > 0 && at < Array.unsafe_get t.ats p then begin
    move t ~src:p ~dst:i;
    hole_up t at id p
  end
  else set t i at id

(* Sinks the run [(at, key)] whose head is slot [id] from the hole at
   [i]. *)
let rec sift_down t at key id i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let c =
    if r < t.runs then
      let lat = Array.unsafe_get t.ats l and rat = Array.unsafe_get t.ats r in
      if rat < lat || (rat = lat && key_at t r < key_at t l) then r else l
    else l
  in
  if
    c < t.runs
    &&
    let cat = Array.unsafe_get t.ats c in
    cat < at || (cat = at && key_at t c < key)
  then begin
    move t ~src:c ~dst:i;
    sift_down t at key id c
  end
  else set t i at id

(* Sinks the entry at position [src] from the hole at [i]. *)
let sink t ~src i =
  let id = Array.unsafe_get t.ids src in
  sift_down t (Array.unsafe_get t.ats src)
    (Array.unsafe_get t.evs id).key id i

let min_capacity = 16

(* Growing keeps every record in its slot: it happens only when every
   slot is taken, and the new slots [cap, ncap) are the free ones.
   Shrinking is the one place slots are renumbered: the events take
   slots [0, pending) run by run, in heap order, so every slot id fits
   the smaller table and the free slots are [pending, ncap). It closes
   the newest run, whose tail slot it does not track. *)
let resize t ncap =
  let cap = Array.length t.ats in
  let ats = Array.make ncap 0 and ids = Array.make ncap 0 in
  let evs = Array.make ncap vacant in
  (* not [Array.init], which makes one closure call per slot *)
  for i = 1 to ncap - 1 do
    Array.unsafe_set ids i i
  done;
  Array.blit t.ats 0 ats 0 t.runs;
  if ncap > cap then begin
    Array.blit t.ids 0 ids 0 t.runs;
    Array.blit t.evs 0 evs 0 cap
  end
  else begin
    t.tail_at <- -1;
    let k = ref 0 in
    for i = 0 to t.runs - 1 do
      Array.unsafe_set ids i !k;
      let s = ref (Array.unsafe_get t.ids i) in
      while !s >= 0 do
        let ev = Array.unsafe_get t.evs !s in
        Array.unsafe_set evs !k ev;
        s := ev.next;
        incr k;
        if !s >= 0 then ev.next <- !k
      done
    done
  end;
  t.ats <- ats;
  t.ids <- ids;
  t.evs <- evs

(* Capacity doubles when full and halves once only a quarter of it is
   pending. *)
let maybe_shrink t =
  let cap = Array.length t.ats in
  if cap > min_capacity && t.pending * 4 <= cap then resize t (cap / 2)

(* High-water marks, updated by every push. *)
let note_pushed t =
  let len = t.pending in
  if len > t.max_pending then t.max_pending <- len;
  let live = len - t.cancelled_pending in
  if live > t.max_live_pending then t.max_live_pending <- live

(* The record is stored into its slot before the sift. Storing a freshly
   allocated record into the table is the costliest step of a push (the
   write barrier remembers it), and [hole_up] polls on entry. OCaml 5
   runs signal handlers at poll points, so a sampling profiler's tick
   that lands in that store is taken here, with this module on the
   stack, not at the caller's next poll. The previous push's slot is
   read before the store, which may reuse it. *)
let push t at ev =
  let cap = Array.length t.ats in
  if t.pending = cap then resize t (if cap = 0 then min_capacity else 2 * cap);
  let id = Array.unsafe_get t.ids t.pending in
  t.pending <- t.pending + 1;
  note_pushed t;
  let last = if at = t.tail_at then Array.unsafe_get t.evs t.tail else vacant in
  Array.unsafe_set t.evs id ev;
  if last != vacant then last.next <- id
  else begin
    let i = t.runs in
    t.runs <- i + 1;
    t.tail_at <- at;
    hole_up t at id i
  end;
  t.tail <- id

(* Removes the root run's head event [ev], in slot [id], and frees the
   slot. While the run holds more events the next one becomes the head
   in place: it sorts after [ev] and before every other run at the
   instant, so nothing sifts. *)
let remove_root t id ev =
  let nx = ev.next in
  if nx >= 0 then Array.unsafe_set t.ids 0 nx
  else begin
    let n = t.runs - 1 in
    t.runs <- n;
    if n > 0 then sink t ~src:n 0
  end;
  let p = t.pending - 1 in
  t.pending <- p;
  Array.unsafe_set t.ids p id;
  Array.unsafe_set t.evs id vacant;
  maybe_shrink t

(* Queues an unqueued, live record at [at] under the next sequence
   number, as the tail of its run. *)
let enqueue t at ev =
  ev.key <- t.next_seq lsl 1;
  ev.next <- -1;
  t.next_seq <- t.next_seq + 1;
  push t (at : Time.t :> int) ev

let check_not_past t ~what at =
  if Time.(at < t.clock) then
    invalid_arg
      (Format.asprintf "%s: %a is before now (%a)" what Time.pp at Time.pp
         t.clock)

let schedule_at t at thunk =
  check_not_past t ~what:"Sim.schedule_at" at;
  let ev = { thunk; key = unqueued; next = -1 } in
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
  if not (cancelled ev) then begin
    ev.key <- ev.key lor 1;
    if queued ev then t.cancelled_pending <- t.cancelled_pending + 1
  end

(* Drops the tombstones of the run whose head is slot [s], relinking the
   events it keeps, and returns the slot of its last kept event ([-1]
   if none). The run's kept head goes to heap entry [k]. *)
let filter_run t k s =
  let last = ref (-1) and s = ref s in
  while !s >= 0 do
    let id = !s in
    let ev = Array.unsafe_get t.evs id in
    s := ev.next;
    if cancelled ev then begin
      (* The record leaves the queue here, not at dispatch: without
         this a disarmed reusable timer could never be re-armed in
         place again. *)
      dequeue ev;
      Array.unsafe_set t.evs id vacant
    end
    else begin
      if !last < 0 then Array.unsafe_set t.ids k id
      else (Array.unsafe_get t.evs !last).next <- id;
      last := id
    end
  done;
  if !last >= 0 then (Array.unsafe_get t.evs !last).next <- -1;
  !last

(* The sweep: filter each run in place, dropping the runs it empties,
   list the freed slots after the kept events, then a bottom-up (Floyd)
   heapify. A kept run's entry moves to a position no later than its
   own, so the filter never overwrites a run it has yet to read. *)
let sweep t =
  let kept = ref 0 in
  for i = 0 to t.runs - 1 do
    let at = Array.unsafe_get t.ats i in
    if filter_run t !kept (Array.unsafe_get t.ids i) >= 0 then begin
      Array.unsafe_set t.ats !kept at;
      incr kept
    end
  done;
  t.runs <- !kept;
  t.pending <- t.pending - t.cancelled_pending;
  let free = ref t.pending in
  for id = 0 to Array.length t.evs - 1 do
    if Array.unsafe_get t.evs id == vacant then begin
      Array.unsafe_set t.ids !free id;
      incr free
    end
  done;
  for i = (t.runs / 2) - 1 downto 0 do
    sink t ~src:i i
  done;
  t.cancelled_pending <- 0;
  maybe_shrink t

let maybe_compact t =
  if
    t.cancelled_pending > compact_threshold
    && 2 * t.cancelled_pending > t.pending
  then sweep t

let cancel t (H ev) =
  tombstone t ev;
  maybe_compact t

(* ---------- reusable timers ---------- *)

let timer _t f = { cur = { thunk = f; key = unqueued lor 1; next = -1 } }

let arm_at t tm at =
  check_not_past t ~what:"Sim.arm_at" at;
  let ev = tm.cur in
  if queued ev then begin
    (* Superseding a pending arm (or a disarm tombstone still awaiting
       its sweep): behave exactly like [cancel] + a fresh schedule. *)
    tombstone t ev;
    maybe_compact t;
    let e = { thunk = ev.thunk; key = unqueued; next = -1 } in
    tm.cur <- e;
    enqueue t at e
  end
  else enqueue t at ev

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
  let rec ev = { thunk = tick; key = unqueued; next = -1 }
  and tick () =
    f ();
    if not (cancelled ev) then begin
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
    if t.runs > 0 && Array.unsafe_get t.ats 0 <= horizon_ns then begin
      let at = Array.unsafe_get t.ats 0 and id = Array.unsafe_get t.ids 0 in
      let ev = Array.unsafe_get t.evs id in
      remove_root t id ev;
      t.clock <- Time.of_ns at;
      dequeue ev;
      if cancelled ev then t.cancelled_pending <- t.cancelled_pending - 1
      else begin
        t.dispatched <- t.dispatched + 1;
        ev.thunk ()
      end;
      loop ()
    end
  in
  loop ();
  t.clock <- Time.max t.clock horizon

let pending t = t.pending

let live_pending t = t.pending - t.cancelled_pending

let max_pending t = t.max_pending

let max_live_pending t = t.max_live_pending

let events_dispatched t = t.dispatched
