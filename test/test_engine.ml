(* Tests for the discrete-event engine: heap, time, PRNG, sim loop, stats,
   trace. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Heap = Engine.Heap
module Calendar = Engine.Calendar
module Event_queue = Engine.Event_queue
module Prng = Engine.Prng
module Stats = Engine.Stats
module Trace = Engine.Trace

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* ---------- Time ---------- *)

let test_time_units () =
  checki "ms" 1_000_000 (Time.to_ns (Time.of_ms 1));
  checki "sec" 1_000_000_000 (Time.to_ns (Time.of_sec 1));
  checki "us" 1_000 (Time.to_ns (Time.of_us 1));
  checkf "roundtrip" 1.5 (Time.to_sec_f (Time.of_sec_f 1.5))

let test_time_add_diff () =
  let t = Time.add (Time.of_sec 2) (Time.span_of_ms 500) in
  checki "add" 2_500_000_000 (Time.to_ns t);
  checki "diff" 500_000_000 (Time.diff t (Time.of_sec 2));
  checki "neg diff" (-500_000_000) (Time.diff (Time.of_sec 2) t)

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)));
  Alcotest.check_raises "negative span"
    (Invalid_argument "Time.add: negative span") (fun () ->
      ignore (Time.add Time.zero (-5)))

let test_time_compare () =
  checkb "lt" true Time.(of_sec 1 < of_sec 2);
  checkb "le eq" true Time.(of_sec 2 <= of_sec 2);
  checkb "gt" true Time.(of_sec 3 > of_sec 2);
  checki "min" (Time.to_ns (Time.of_sec 1))
    (Time.to_ns (Time.min (Time.of_sec 1) (Time.of_sec 2)))

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare in
  checkb "empty" true (Heap.is_empty h);
  checkb "pop none" true (Heap.pop h = None);
  checkb "peek none" true (Heap.peek h = None)

let test_heap_peek_stable () =
  let h = Heap.create ~cmp:Int.compare in
  Heap.push h 4;
  Heap.push h 2;
  checkb "peek min" true (Heap.peek h = Some 2);
  checki "len unchanged" 2 (Heap.length h)

let test_heap_pop_clears_and_shrinks () =
  let h = Heap.create ~cmp:Int.compare in
  for i = 1 to 200 do
    Heap.push h i
  done;
  let cap_full = Heap.capacity h in
  checkb "grew" true (cap_full >= 200);
  for _ = 1 to 160 do
    ignore (Heap.pop h)
  done;
  checki "len" 40 (Heap.length h);
  checkb "shrank once quarter full" true (Heap.capacity h < cap_full);
  checkb "cap >= len" true (Heap.capacity h >= Heap.length h);
  for _ = 1 to 40 do
    ignore (Heap.pop h)
  done;
  (* An empty heap holds no backing array at all: the last popped
     element is reclaimable. *)
  checki "empty releases storage" 0 (Heap.capacity h)

let test_heap_exn_accessors () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "peek_exn empty"
    (Invalid_argument "Heap.peek_exn: empty") (fun () ->
      ignore (Heap.peek_exn h));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Heap.pop_exn: empty") (fun () ->
      ignore (Heap.pop_exn h));
  Heap.push h 3;
  Heap.push h 1;
  checki "peek_exn" 1 (Heap.peek_exn h);
  checki "pop_exn" 1 (Heap.pop_exn h);
  checki "pop_exn next" 3 (Heap.pop_exn h)

let test_heap_filter () =
  let h = Heap.create ~cmp:Int.compare in
  for i = 1 to 50 do
    Heap.push h i
  done;
  Heap.filter h (fun x -> x mod 2 = 0);
  checki "kept" 25 (Heap.length h);
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check (Alcotest.list Alcotest.int) "sorted evens"
    (List.init 25 (fun i -> 2 * (i + 1)))
    (drain [])

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved push/pop keeps min" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := List.sort Int.compare (x :: !model);
            true
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some v, m :: rest ->
                model := rest;
                v = m
            | _ -> false)
        ops)

(* ---------- Calendar ---------- *)

(* Elements are (key, seq) pairs ordered like Sim's events: by key, then
   by arrival sequence. *)
let cal_cmp (k1, s1) (k2, s2) =
  let c = Int.compare k1 k2 in
  if c <> 0 then c else Int.compare s1 s2

let cal_create () =
  Calendar.create ~cmp:cal_cmp ~key:fst ~dummy:(0, -1)

let cal_drain q =
  let rec go acc =
    match Calendar.pop_min q with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let test_calendar_sorted_drain () =
  let q = cal_create () in
  let keys = [ 512; 3; 77; 3; 9_000_000; 0; 77; 41; 5 ] in
  List.iteri (fun s k -> Calendar.push q (k, s)) keys;
  checki "length" (List.length keys) (Calendar.length q);
  let expect = List.sort cal_cmp (List.mapi (fun s k -> (k, s)) keys) in
  checkb "sorted with FIFO ties" true (cal_drain q = expect);
  checkb "empty after drain" true (Calendar.is_empty q)

let test_calendar_empty () =
  let q = cal_create () in
  checkb "empty" true (Calendar.is_empty q);
  checkb "pop none" true (Calendar.pop_min q = None);
  checkb "peek none" true (Calendar.peek_min q = None);
  Alcotest.check_raises "peek_min_exn empty"
    (Invalid_argument "Calendar.peek_min_exn: empty") (fun () ->
      ignore (Calendar.peek_min_exn q));
  Alcotest.check_raises "negative key"
    (Invalid_argument "Calendar.push: negative key") (fun () ->
      Calendar.push q (-1, 0))

let test_calendar_year_wrap () =
  (* All pending events more than a year beyond the last pop: the scan
     must fall through to the direct search rather than spin or return a
     later-year element early. *)
  let q = cal_create () in
  Calendar.push q (1, 0);
  ignore (Calendar.pop_min_exn q);
  List.iter (Calendar.push q) [ (50_000_000, 1); (40_000_000, 2) ];
  checkb "direct search min" true (Calendar.peek_min_exn q = (40_000_000, 2));
  checkb "order across years" true
    (cal_drain q = [ (40_000_000, 2); (50_000_000, 1) ])

let test_calendar_filter () =
  let q = cal_create () in
  for s = 0 to 199 do
    Calendar.push q (s * 10, s)
  done;
  Calendar.filter q (fun (_, s) -> s mod 2 = 0);
  checki "kept" 100 (Calendar.length q);
  checkb "survivors sorted" true
    (cal_drain q = List.init 100 (fun i -> (20 * i, 2 * i)));
  (* Filtering everything away leaves a working queue. *)
  for s = 0 to 9 do
    Calendar.push q (s, s)
  done;
  Calendar.filter q (fun _ -> false);
  checkb "all dropped" true (Calendar.is_empty q);
  Calendar.push q (7, 0);
  checkb "usable after empty filter" true (Calendar.pop_min q = Some (7, 0))

let test_calendar_resize () =
  let q = cal_create () in
  for s = 0 to 999 do
    Calendar.push q (s * 1000, s)
  done;
  checkb "grew" true (Calendar.capacity q >= 512);
  for _ = 1 to 950 do
    ignore (Calendar.pop_min_exn q)
  done;
  checkb "shrank" true (Calendar.capacity q < 512);
  checki "length" 50 (Calendar.length q);
  checkb "remaining in order" true
    (cal_drain q = List.init 50 (fun i -> ((950 + i) * 1000, 950 + i)))

let test_calendar_interleaved_lower_key () =
  (* Pushing below the last-popped key must lower the dequeue cursor. *)
  let q = cal_create () in
  List.iter (Calendar.push q) [ (100, 0); (200, 1) ];
  checkb "first" true (Calendar.pop_min_exn q = (100, 0));
  Calendar.push q (50, 2);
  checkb "lower key surfaces" true (Calendar.pop_min_exn q = (50, 2));
  checkb "then the rest" true (Calendar.pop_min_exn q = (200, 1))

let test_calendar_bucket_recycling () =
  let q = cal_create () in
  checki "fresh queue has recycled nothing" 0 (Calendar.recycled q);
  (* Grow/shrink oscillations over the same size range: the first cycle
     parks the retired bucket generations, later cycles must be served
     from the parked spare instead of allocating fresh arrays. *)
  for cycle = 1 to 3 do
    for s = 0 to 599 do
      Calendar.push q ((cycle * 10_000) + s, s)
    done;
    for _ = 1 to 600 do
      ignore (Calendar.pop_min_exn q)
    done
  done;
  checkb
    (Printf.sprintf "later cycles reuse parked generations (%d)"
       (Calendar.recycled q))
    true
    (Calendar.recycled q > 0);
  (* Recycled buckets must come back scrubbed: the queue behaves
     exactly as a fresh one afterwards. *)
  for s = 0 to 99 do
    Calendar.push q (s * 7, s)
  done;
  checkb "drains sorted after recycling" true
    (cal_drain q = List.init 100 (fun i -> (7 * i, i)))

let test_calendar_pop_if_key () =
  let q = cal_create () in
  let none = (-1, -1) in
  checkb "empty queue declines" true (Calendar.pop_if_key q ~key:0 ~none == none);
  List.iteri (fun s k -> Calendar.push q (k, s)) [ 100; 100; 100; 200 ];
  checkb "first of the run" true (Calendar.pop_min_exn q = (100, 0));
  (* The two remaining key-100 elements drain through the fast path in
     FIFO order; the key-200 element must not. *)
  checkb "second of the run" true (Calendar.pop_if_key q ~key:100 ~none = (100, 1));
  checkb "third of the run" true (Calendar.pop_if_key q ~key:100 ~none = (100, 2));
  checkb "run exhausted" true (Calendar.pop_if_key q ~key:100 ~none == none);
  checkb "later key untouched" true (Calendar.pop_min_exn q = (200, 3));
  (* A refused pop leaves the queue fully intact. *)
  List.iteri (fun s k -> Calendar.push q (k, s)) [ 300; 400 ];
  ignore (Calendar.pop_min_exn q);
  checkb "wrong key refused" true (Calendar.pop_if_key q ~key:300 ~none == none);
  checki "nothing lost" 1 (Calendar.length q);
  checkb "normal pop still works" true (Calendar.pop_min_exn q = (400, 1))

let test_calendar_resize_counter () =
  let q = cal_create () in
  checki "fresh queue has not resized" 0 (Calendar.resizes q);
  for s = 0 to 999 do
    Calendar.push q (s * 1000, s)
  done;
  checkb "growth counted" true (Calendar.resizes q > 0);
  let grown = Calendar.resizes q in
  ignore (cal_drain q);
  checkb "shrinks counted too" true (Calendar.resizes q > grown)

let prop_calendar_matches_heap =
  QCheck.Test.make ~name:"calendar drains exactly like a heap" ~count:200
    QCheck.(list (int_bound 100_000))
    (fun keys ->
      let q = cal_create () in
      let h = Heap.create ~cmp:cal_cmp in
      List.iteri
        (fun s k ->
          Calendar.push q (k, s);
          Heap.push h (k, s))
        keys;
      let rec hdrain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> hdrain (x :: acc)
      in
      cal_drain q = hdrain [])

(* ---------- heap / calendar dispatch equivalence ---------- *)

(* Random interleavings of the whole Sim API, replayed on both backends:
   the dispatch traces (instant, op id) must match event for event.
   Driver events apply one op each; Burst + Bulk push the tombstone
   population past the compaction threshold so the lazy-deletion sweep
   runs under both backends. *)
type sim_op =
  | Sched of int  (* one-shot, ms after the driver fires *)
  | Every of int  (* periodic, period in ms *)
  | Cancel of int  (* cancel the (i mod n)-th handle issued so far *)
  | Burst  (* 80 one-shots spread ahead, all handles retained *)
  | Bulk  (* cancel every handle issued so far *)

let sim_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun ms -> Sched ms) (int_bound 1000));
        (2, map (fun p -> Every (1 + p)) (int_bound 50));
        (3, map (fun i -> Cancel i) (int_bound 1000));
        (1, return Burst);
        (1, return Bulk);
      ])

let pp_sim_op ppf = function
  | Sched ms -> Format.fprintf ppf "Sched %d" ms
  | Every p -> Format.fprintf ppf "Every %d" p
  | Cancel i -> Format.fprintf ppf "Cancel %d" i
  | Burst -> Format.fprintf ppf "Burst"
  | Bulk -> Format.fprintf ppf "Bulk"

let sim_op_arb =
  QCheck.make
    ~print:(Format.asprintf "%a" (Format.pp_print_list pp_sim_op))
    QCheck.Gen.(list_size (1 -- 30) sim_op_gen)

let run_ops ?(batch = true) backend ops =
  let sim = Sim.create ~backend () in
  Sim.set_batch_runs sim batch;
  let trace = ref [] in
  let mark id () = trace := (Time.to_ns (Sim.now sim), id) :: !trace in
  let handles = ref [] in
  let keep h = handles := h :: !handles in
  List.iteri
    (fun i op ->
      ignore
        (Sim.schedule_at sim (Time.of_ms i) (fun () ->
             match op with
             | Sched ms ->
                 keep (Sim.schedule_after sim (Time.span_of_ms ms) (mark i))
             | Every p -> keep (Sim.every sim ~period:(Time.span_of_ms p) (mark i))
             | Cancel k -> (
                 match !handles with
                 | [] -> ()
                 | hs -> Sim.cancel sim (List.nth hs (k mod List.length hs)))
             | Burst ->
                 for j = 0 to 79 do
                   keep
                     (Sim.schedule_after sim
                        (Time.span_of_ms (500 + j))
                        (mark (1000 + (100 * i) + j)))
                 done
             | Bulk -> List.iter (Sim.cancel sim) !handles)))
    ops;
  Sim.run_until sim (Time.of_ms (List.length ops + 1500));
  ( List.rev !trace,
    Sim.events_dispatched sim,
    Sim.live_pending sim,
    Sim.max_live_pending sim )

let prop_backends_equivalent =
  QCheck.Test.make ~name:"heap and calendar dispatch identical traces"
    ~count:100 sim_op_arb
    (fun ops ->
      run_ops Event_queue.Heap ops = run_ops Event_queue.Calendar ops)

(* Batched run dispatch must be a pure speed change: the one-event
   reference loop and the batched loop see the same traces — including
   the clock value each thunk observes — and the same counters, on both
   backends. The generator's driver events (one per millisecond) plus
   Burst put several events on equal instants, so runs of length > 1 are
   exercised, as are thunks that schedule new work at the current
   instant mid-run. *)
let prop_batching_invisible =
  QCheck.Test.make ~name:"batched dispatch matches the reference loop"
    ~count:100 sim_op_arb
    (fun ops ->
      run_ops ~batch:true Event_queue.Heap ops
      = run_ops ~batch:false Event_queue.Heap ops
      && run_ops ~batch:true Event_queue.Calendar ops
         = run_ops ~batch:false Event_queue.Calendar ops)

(* ---------- reusable timers ---------- *)

let test_sim_timer_supersede_and_reuse () =
  let sim = Sim.create () in
  let fired = ref [] in
  let tmr =
    Sim.timer sim (fun () -> fired := Time.to_ns (Sim.now sim) :: !fired)
  in
  Sim.arm_at sim tmr (Time.of_sec 1);
  Sim.arm_at sim tmr (Time.of_sec 2);
  Sim.run_until sim (Time.of_sec 3);
  check (Alcotest.list Alcotest.int) "second arm supersedes the first"
    [ Time.to_ns (Time.of_sec 2) ]
    (List.rev !fired);
  (* After firing, the same timer re-arms in place. *)
  Sim.arm_after sim tmr (Time.span_of_sec 1);
  Sim.run_until sim (Time.of_sec 5);
  checki "re-armed after firing" 2 (List.length !fired)

let test_sim_timer_disarm () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tmr = Sim.timer sim (fun () -> incr count) in
  Sim.arm_at sim tmr (Time.of_sec 1);
  Sim.disarm sim tmr;
  Sim.run_until sim (Time.of_sec 2);
  checki "disarmed timer never fires" 0 !count;
  Sim.arm_at sim tmr (Time.of_sec 3);
  Sim.run_until sim (Time.of_sec 4);
  checki "armable again after disarm" 1 !count;
  Sim.disarm sim tmr;
  Sim.run_until sim (Time.of_sec 5);
  checki "disarm after firing is inert" 1 !count

(* Random interleavings of the reusable-timer API, replayed against a
   reference program that expresses each re-arm as cancel + fresh
   schedule_after. The two must be indistinguishable — identical
   dispatch traces AND identical counters — on both backends. A
   [T_self] op turns a timer into a self-re-arming loop for a few
   firings, exercising the fired-then-re-armed (reuse-in-place) path;
   [T_arm] over a pending arm exercises the supersede (tombstone +
   fresh record) path. *)
type timer_op =
  | T_arm of int * int  (* timer index, delay in ms *)
  | T_disarm of int
  | T_self of int * int * int  (* timer index, extra firings, period ms *)

let n_timers = 3

let timer_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2 (fun i ms -> T_arm (i, ms)) (int_bound (n_timers - 1))
            (int_bound 400) );
        (3, map (fun i -> T_disarm i) (int_bound (n_timers - 1)));
        ( 2,
          map3
            (fun i n p -> T_self (i, 1 + n, 1 + p))
            (int_bound (n_timers - 1))
            (int_bound 5) (int_bound 60) );
      ])

let pp_timer_op ppf = function
  | T_arm (i, ms) -> Format.fprintf ppf "T_arm (%d, %d)" i ms
  | T_disarm i -> Format.fprintf ppf "T_disarm %d" i
  | T_self (i, n, p) -> Format.fprintf ppf "T_self (%d, %d, %d)" i n p

let timer_op_arb =
  QCheck.make
    ~print:(Format.asprintf "%a" (Format.pp_print_list pp_timer_op))
    QCheck.Gen.(list_size (1 -- 30) timer_op_gen)

let run_timer_ops backend ops =
  let sim = Sim.create ~backend () in
  let trace = ref [] in
  let mark id = trace := (Time.to_ns (Sim.now sim), id) :: !trace in
  let self_n = Array.make n_timers 0 in
  let self_p = Array.make n_timers 0 in
  let timers =
    Array.init n_timers (fun idx ->
        let tmr = ref (Sim.timer sim ignore) in
        tmr :=
          Sim.timer sim (fun () ->
              mark idx;
              if self_n.(idx) > 0 then begin
                self_n.(idx) <- self_n.(idx) - 1;
                Sim.arm_after sim !tmr (Time.span_of_ms self_p.(idx))
              end);
        !tmr)
  in
  List.iteri
    (fun i op ->
      ignore
        (Sim.schedule_at sim (Time.of_ms i) (fun () ->
             match op with
             | T_arm (t, ms) ->
                 self_n.(t) <- 0;
                 Sim.arm_after sim timers.(t) (Time.span_of_ms ms)
             | T_disarm t ->
                 self_n.(t) <- 0;
                 Sim.disarm sim timers.(t)
             | T_self (t, n, p) ->
                 self_n.(t) <- n;
                 self_p.(t) <- p;
                 Sim.arm_after sim timers.(t) (Time.span_of_ms p))))
    ops;
  Sim.run_until sim (Time.of_ms (List.length ops + 2000));
  ( List.rev !trace,
    Sim.events_dispatched sim,
    Sim.live_pending sim,
    Sim.max_live_pending sim )

(* The reference program: a timer is a handle plus a live flag. Arming
   over a pending arm cancels it first; arming a fired timer schedules
   afresh with no cancel (mirroring reuse-in-place); disarm cancels the
   last handle unconditionally — even after it fired — because that is
   what [Sim.disarm] does, and the cancel-after-fire tombstone is
   visible in [live_pending]. *)
let run_ref_ops backend ops =
  let sim = Sim.create ~backend () in
  let trace = ref [] in
  let mark id = trace := (Time.to_ns (Sim.now sim), id) :: !trace in
  let self_n = Array.make n_timers 0 in
  let self_p = Array.make n_timers 0 in
  let handle = Array.make n_timers None in
  let live = Array.make n_timers false in
  let rec arm idx ms =
    if live.(idx) then Option.iter (Sim.cancel sim) handle.(idx);
    handle.(idx) <-
      Some
        (Sim.schedule_after sim (Time.span_of_ms ms) (fun () ->
             live.(idx) <- false;
             mark idx;
             if self_n.(idx) > 0 then begin
               self_n.(idx) <- self_n.(idx) - 1;
               arm idx self_p.(idx)
             end));
    live.(idx) <- true
  in
  let disarm idx =
    Option.iter (Sim.cancel sim) handle.(idx);
    live.(idx) <- false
  in
  List.iteri
    (fun i op ->
      ignore
        (Sim.schedule_at sim (Time.of_ms i) (fun () ->
             match op with
             | T_arm (t, ms) ->
                 self_n.(t) <- 0;
                 arm t ms
             | T_disarm t ->
                 self_n.(t) <- 0;
                 disarm t
             | T_self (t, n, p) ->
                 self_n.(t) <- n;
                 self_p.(t) <- p;
                 arm t p)))
    ops;
  Sim.run_until sim (Time.of_ms (List.length ops + 2000));
  ( List.rev !trace,
    Sim.events_dispatched sim,
    Sim.live_pending sim,
    Sim.max_live_pending sim )

let prop_timers_equivalent =
  QCheck.Test.make
    ~name:"reusable timers match cancel+reschedule on both backends"
    ~count:100 timer_op_arb
    (fun ops ->
      let a = run_timer_ops Event_queue.Heap ops in
      let b = run_timer_ops Event_queue.Calendar ops in
      let c = run_ref_ops Event_queue.Heap ops in
      let d = run_ref_ops Event_queue.Calendar ops in
      a = b && a = c && a = d)

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    checkb "same" true (Prng.bits64 a = Prng.bits64 b)
  done

let test_prng_streams_differ () =
  let root = Prng.create ~seed:7L in
  let a = Prng.split root ~label:"a" and b = Prng.split root ~label:"b" in
  checkb "streams differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_stable () =
  let r1 = Prng.create ~seed:9L and r2 = Prng.create ~seed:9L in
  let a = Prng.split r1 ~label:"x" and b = Prng.split r2 ~label:"x" in
  checkb "same stream" true (Prng.bits64 a = Prng.bits64 b)

let test_prng_bounds () =
  let g = Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Prng.int g ~bound:10 in
    checkb "in range" true (v >= 0 && v < 10);
    let f = Prng.float g in
    checkb "float range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_uniform_mean () =
  let g = Prng.create ~seed:3L in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Prng.uniform g ~lo:2.0 ~hi:4.0)
  done;
  checkb "mean near 3" true (Float.abs (Stats.mean s -. 3.0) < 0.02)

let test_prng_bernoulli () =
  let g = Prng.create ~seed:4L in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bool g ~p:0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  checkb "p near 0.25" true (Float.abs (frac -. 0.25) < 0.02)

let test_prng_invalid () =
  let g = Prng.create ~seed:1L in
  Alcotest.check_raises "bound" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int g ~bound:0));
  Alcotest.check_raises "mean" (Invalid_argument "Prng.exponential: mean <= 0")
    (fun () -> ignore (Prng.exponential g ~mean:0.0))

(* ---------- Sim ---------- *)

let test_sim_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim (Time.of_sec 2) (fun () -> log := 2 :: !log));
  ignore (Sim.schedule_at sim (Time.of_sec 1) (fun () -> log := 1 :: !log));
  ignore (Sim.schedule_at sim (Time.of_sec 3) (fun () -> log := 3 :: !log));
  Sim.run_until sim (Time.of_sec 10);
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim (Time.of_sec 1) (fun () -> log := i :: !log))
  done;
  Sim.run_until sim (Time.of_sec 2);
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let seen = ref Time.zero in
  ignore (Sim.schedule_at sim (Time.of_sec 5) (fun () -> seen := Sim.now sim));
  Sim.run_until sim (Time.of_sec 10);
  checki "event time" (Time.to_ns (Time.of_sec 5)) (Time.to_ns !seen);
  checki "horizon" (Time.to_ns (Time.of_sec 10)) (Time.to_ns (Sim.now sim))

let test_sim_horizon_excludes_later () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_at sim (Time.of_sec 5) (fun () -> fired := true));
  Sim.run_until sim (Time.of_sec 4);
  checkb "not yet" false !fired;
  Sim.run_until sim (Time.of_sec 5);
  checkb "now" true !fired

(* Horizon edge under batched dispatch (the equal-timestamp run
   optimization): an event at exactly the horizon fires in that
   [run_until] call; a run of equal instants at the horizon fires whole,
   including same-instant work its own thunks add mid-run; a run
   straddling two [run_until] calls at the same horizon neither drops
   nor double-fires; and the first event past the horizon stays put.
   Checked on both backends, batched and reference loop. *)
let sim_horizon_edge ~batch backend () =
  let sim = Sim.create ~backend () in
  Sim.set_batch_runs sim batch;
  let h = Time.of_sec 5 in
  let log = ref [] in
  let mark tag () = log := (tag, Time.to_ns (Sim.now sim)) :: !log in
  ignore (Sim.schedule_at sim (Time.of_sec 4) (mark "before"));
  ignore (Sim.schedule_at sim h (mark "at1"));
  ignore
    (Sim.schedule_at sim h (fun () ->
         mark "spawner" ();
         (* Same-instant work added mid-run joins this run. *)
         ignore (Sim.schedule_after sim (Time.span_of_ms 0) (mark "spawned"))));
  ignore (Sim.schedule_at sim h (mark "at3"));
  ignore (Sim.schedule_at sim (Time.of_ns (Time.to_ns h + 1)) (mark "after"));
  Sim.run_until sim h;
  let ns = Time.to_ns h in
  check
    Alcotest.(list (pair string int))
    "run at horizon fires whole"
    [
      ("before", Time.to_ns (Time.of_sec 4));
      ("at1", ns); ("spawner", ns); ("at3", ns); ("spawned", ns);
    ]
    (List.rev !log);
  checki "clock at horizon" ns (Time.to_ns (Sim.now sim));
  (* Re-running to the same horizon dispatches nothing twice. *)
  let fired = Sim.events_dispatched sim in
  Sim.run_until sim h;
  checki "no re-dispatch" fired (Sim.events_dispatched sim);
  (* The equal-timestamp run straddles run_until calls: more work lands
     at the same instant after the first call returned. *)
  log := [];
  ignore (Sim.schedule_at sim h (mark "late1"));
  ignore (Sim.schedule_at sim h (mark "late2"));
  Sim.run_until sim h;
  check
    Alcotest.(list (pair string int))
    "straddling run completes" [ ("late1", ns); ("late2", ns) ]
    (List.rev !log);
  (* One nanosecond further releases the held-back event, exactly once. *)
  log := [];
  Sim.run_until sim (Time.of_ns (ns + 1));
  check
    Alcotest.(list (pair string int))
    "past-horizon event released" [ ("after", ns + 1) ]
    (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim (Time.of_sec 1) (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run_until sim (Time.of_sec 2);
  checkb "cancelled" false !fired

let test_sim_schedule_past_rejected () =
  let sim = Sim.create () in
  Sim.run_until sim (Time.of_sec 5);
  checkb "raises" true
    (try
       ignore (Sim.schedule_at sim (Time.of_sec 1) ignore);
       false
     with Invalid_argument _ -> true)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule_at sim (Time.of_sec 1) (fun () ->
         log := "a" :: !log;
         ignore
           (Sim.schedule_after sim (Time.span_of_sec 1) (fun () ->
                log := "b" :: !log))));
  Sim.run_until sim (Time.of_sec 3);
  check (Alcotest.list Alcotest.string) "nested" [ "a"; "b" ] (List.rev !log)

let test_sim_every () =
  let sim = Sim.create () in
  let count = ref 0 in
  ignore (Sim.every sim ~period:(Time.span_of_sec 1) (fun () -> incr count));
  Sim.run_until sim (Time.of_sec 10);
  checki "ten firings" 10 !count

let test_sim_every_cancel () =
  let sim = Sim.create () in
  let count = ref 0 in
  let h = Sim.every sim ~period:(Time.span_of_sec 1) (fun () -> incr count) in
  ignore
    (Sim.schedule_at sim (Time.of_ms 3_500) (fun () -> Sim.cancel sim h));
  Sim.run_until sim (Time.of_sec 10);
  checki "stopped after 3" 3 !count

let test_sim_every_start () =
  let sim = Sim.create () in
  let times = ref [] in
  ignore
    (Sim.every sim ~start:(Time.of_sec 5) ~period:(Time.span_of_sec 2)
       (fun () -> times := Time.to_sec_f (Sim.now sim) :: !times));
  Sim.run_until sim (Time.of_sec 10);
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "start offset" [ 5.0; 7.0; 9.0 ] (List.rev !times)

let test_sim_every_jitter () =
  let sim = Sim.create () in
  let rng = Sim.rng sim ~label:"jitter" in
  let times = ref [] in
  ignore
    (Sim.every sim ~jitter:(rng, 0.2) ~period:(Time.span_of_sec 1) (fun () ->
         times := Time.to_sec_f (Sim.now sim) :: !times));
  Sim.run_until sim (Time.of_sec 20);
  let n = List.length !times in
  checkb (Printf.sprintf "about 20 firings (%d)" n) true (n >= 17 && n <= 22);
  (* Displacements stay within the jitter band around the nominal grid. *)
  List.iteri
    (fun i at ->
      let nominal = float_of_int (n - i) in
      checkb "within band" true (Float.abs (at -. nominal) <= 0.21))
    !times

let test_sim_cancel_compacts () =
  let sim = Sim.create () in
  let handles =
    Array.init 500 (fun i ->
        Sim.schedule_at sim (Time.of_sec (i + 100)) ignore)
  in
  checki "pending" 500 (Sim.pending sim);
  checki "max pending" 500 (Sim.max_pending sim);
  Array.iter (Sim.cancel sim) handles;
  (* Lazy deletion sweeps once tombstones dominate: cancelling everything
     must not leave 500 dead events (and their thunks) in the queue. *)
  checkb
    (Printf.sprintf "compacted (pending %d)" (Sim.pending sim))
    true
    (Sim.pending sim < 100);
  Sim.run_until sim (Time.of_sec 1000);
  checki "none dispatched" 0 (Sim.events_dispatched sim)

let test_sim_dispatched_counter () =
  let sim = Sim.create () in
  for i = 1 to 7 do
    ignore (Sim.schedule_at sim (Time.of_sec i) ignore)
  done;
  Sim.run_until sim (Time.of_sec 100);
  checki "count" 7 (Sim.events_dispatched sim)

let test_sim_live_pending () =
  let sim = Sim.create () in
  let hs = List.init 5 (fun i -> Sim.schedule_at sim (Time.of_sec (i + 1)) ignore) in
  checki "pending" 5 (Sim.pending sim);
  checki "live" 5 (Sim.live_pending sim);
  checki "max live" 5 (Sim.max_live_pending sim);
  Sim.cancel sim (List.hd hs);
  Sim.cancel sim (List.nth hs 1);
  (* Tombstones stay in the backing store but leave the live count. *)
  checki "pending keeps tombstones" 5 (Sim.pending sim);
  checki "live drops" 3 (Sim.live_pending sim);
  checki "max live unchanged" 5 (Sim.max_live_pending sim);
  Sim.run_until sim (Time.of_sec 10);
  checki "fired" 3 (Sim.events_dispatched sim);
  checki "live empty" 0 (Sim.live_pending sim)

(* Pins the exact firing instants of a jittered timer for the default
   seed: a regression guard on the displacement rounding (round to
   nearest, not truncate toward zero) and on the PRNG stream layout. *)
let test_sim_jitter_instants_pinned () =
  let sim = Sim.create () in
  let rng = Sim.rng sim ~label:"pin" in
  let times = ref [] in
  ignore
    (Sim.every sim ~jitter:(rng, 0.25) ~period:(Time.span_of_sec 1) (fun () ->
         times := Time.to_ns (Sim.now sim) :: !times));
  Sim.run_until sim (Time.of_sec 5);
  let actual =
    String.concat "," (List.rev_map (Printf.sprintf "%d") !times)
  in
  check Alcotest.string "instants"
    "796049439,1789207514,2874443051,3891631633,4812392220" actual

let prop_sim_events_in_time_order =
  QCheck.Test.make ~name:"events dispatch in nondecreasing time order"
    ~count:100
    QCheck.(list (int_bound 1000))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter
        (fun ms ->
          ignore
            (Sim.schedule_at sim (Time.of_ms ms) (fun () ->
                 fired := ms :: !fired)))
        times;
      Sim.run_until sim (Time.of_sec 10);
      let f = List.rev !fired in
      List.length f = List.length times
      && List.for_all2 ( = ) f (List.stable_sort Int.compare times))

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.count s);
  checkf "mean" 2.5 (Stats.mean s);
  checkf "sum" 10.0 (Stats.sum s);
  checkf "min" 1.0 (Stats.min s);
  checkf "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  checkf "mean 0" 0.0 (Stats.mean s);
  checkf "var 0" 0.0 (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 5.0; 2.0 ] and ys = [ 9.0; 3.0; 7.0; 4.0 ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  checki "count" (Stats.count whole) (Stats.count m);
  check (Alcotest.float 1e-9) "mean" (Stats.mean whole) (Stats.mean m);
  check (Alcotest.float 1e-9) "variance" (Stats.variance whole)
    (Stats.variance m)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"online mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ---------- Trace ---------- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:3 in
  for i = 1 to 5 do
    Trace.record tr (Time.of_sec i) i
  done;
  checki "len capped" 3 (Trace.length tr);
  checki "total" 5 (Trace.total tr);
  check (Alcotest.list Alcotest.int) "keeps newest" [ 3; 4; 5 ]
    (List.map snd (Trace.to_list tr))

let test_trace_find_last () =
  let tr = Trace.create ~capacity:10 in
  List.iter (fun i -> Trace.record tr (Time.of_sec i) i) [ 1; 2; 3; 4 ];
  checkb "finds newest even" true
    (Trace.find_last tr ~f:(fun x -> x mod 2 = 0) = Some (Time.of_sec 4, 4));
  checkb "none" true (Trace.find_last tr ~f:(fun x -> x > 10) = None)

let test_trace_iter_order () =
  let tr = Trace.create ~capacity:2 in
  List.iter (fun i -> Trace.record tr (Time.of_sec i) i) [ 1; 2; 3 ];
  let acc = ref [] in
  Trace.iter tr ~f:(fun _ x -> acc := x :: !acc);
  check (Alcotest.list Alcotest.int) "oldest first" [ 2; 3 ] (List.rev !acc)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "engine"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "add/diff" `Quick test_time_add_diff;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "compare" `Quick test_time_compare;
        ] );
      ( "calendar",
        [
          Alcotest.test_case "sorted drain" `Quick test_calendar_sorted_drain;
          Alcotest.test_case "empty and errors" `Quick test_calendar_empty;
          Alcotest.test_case "year wrap" `Quick test_calendar_year_wrap;
          Alcotest.test_case "filter" `Quick test_calendar_filter;
          Alcotest.test_case "resize" `Quick test_calendar_resize;
          Alcotest.test_case "lower key after pop" `Quick
            test_calendar_interleaved_lower_key;
          Alcotest.test_case "bucket recycling" `Quick
            test_calendar_bucket_recycling;
          Alcotest.test_case "pop_if_key fast path" `Quick
            test_calendar_pop_if_key;
          Alcotest.test_case "resize counter" `Quick
            test_calendar_resize_counter;
        ] );
      qsuite "calendar-props" [ prop_calendar_matches_heap ];
      ( "heap",
        [
          Alcotest.test_case "sorted drain" `Quick test_heap_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek" `Quick test_heap_peek_stable;
          Alcotest.test_case "pop clears and shrinks" `Quick
            test_heap_pop_clears_and_shrinks;
          Alcotest.test_case "exn accessors" `Quick test_heap_exn_accessors;
          Alcotest.test_case "filter" `Quick test_heap_filter;
        ] );
      qsuite "heap-props" [ prop_heap_sorted; prop_heap_interleaved ];
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "streams differ" `Quick test_prng_streams_differ;
          Alcotest.test_case "split stable" `Quick test_prng_split_stable;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time order" `Quick test_sim_order;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "clock" `Quick test_sim_clock_advances;
          Alcotest.test_case "horizon" `Quick test_sim_horizon_excludes_later;
          Alcotest.test_case "horizon edge (heap, batched)" `Quick
            (sim_horizon_edge ~batch:true Event_queue.Heap);
          Alcotest.test_case "horizon edge (heap, reference)" `Quick
            (sim_horizon_edge ~batch:false Event_queue.Heap);
          Alcotest.test_case "horizon edge (calendar, batched)" `Quick
            (sim_horizon_edge ~batch:true Event_queue.Calendar);
          Alcotest.test_case "horizon edge (calendar, reference)" `Quick
            (sim_horizon_edge ~batch:false Event_queue.Calendar);
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "past rejected" `Quick
            test_sim_schedule_past_rejected;
          Alcotest.test_case "nested" `Quick test_sim_nested_schedule;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "every cancel" `Quick test_sim_every_cancel;
          Alcotest.test_case "every start" `Quick test_sim_every_start;
          Alcotest.test_case "every jitter" `Quick test_sim_every_jitter;
          Alcotest.test_case "cancel compacts" `Quick test_sim_cancel_compacts;
          Alcotest.test_case "live pending" `Quick test_sim_live_pending;
          Alcotest.test_case "jitter instants pinned" `Quick
            test_sim_jitter_instants_pinned;
          Alcotest.test_case "dispatch count" `Quick
            test_sim_dispatched_counter;
          Alcotest.test_case "timer supersede and reuse" `Quick
            test_sim_timer_supersede_and_reuse;
          Alcotest.test_case "timer disarm" `Quick test_sim_timer_disarm;
        ] );
      qsuite "sim-props"
        [
          prop_sim_events_in_time_order;
          prop_backends_equivalent;
          prop_batching_invisible;
          prop_timers_equivalent;
        ];
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
      qsuite "stats-props" [ prop_stats_mean_matches_naive ];
      ( "trace",
        [
          Alcotest.test_case "ring" `Quick test_trace_ring;
          Alcotest.test_case "find_last" `Quick test_trace_find_last;
          Alcotest.test_case "iter order" `Quick test_trace_iter_order;
        ] );
    ]
