(* Tests for the discrete-event engine: time, PRNG, sim loop, stats,
   trace. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Prng = Engine.Prng
module Trace = Engine.Trace

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* ---------- Time ---------- *)

let test_time_units () =
  checki "ms" 1_000_000 (Time.to_ns (Time.of_ms 1));
  checki "sec" 1_000_000_000 (Time.to_ns (Time.of_sec 1));
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
      ignore (Time.add Time.zero (-5)));
  (* 1e300 s is far past max_int ns: no wrapped or undefined instant. *)
  Alcotest.check_raises "instant out of range"
    (Invalid_argument "Time.of_sec_f: out of range") (fun () ->
      ignore (Time.of_sec_f 1e300));
  Alcotest.check_raises "span out of range"
    (Invalid_argument "Time.span_of_sec_f: out of range") (fun () ->
      ignore (Time.span_of_sec_f 1e300));
  checki "146 years still fit" 4_600_000_000_000_000_000
    (Time.to_ns (Time.of_sec_f 4.6e9));
  (* Whole seconds past max_int / 10^9 would wrap the nanoseconds: to a
     negative instant, or (2e10 s) to a positive one 49 years out. *)
  Alcotest.check_raises "whole seconds out of range"
    (Invalid_argument "Time.of_sec: out of range") (fun () ->
      ignore (Time.of_sec 5_000_000_000));
  Alcotest.check_raises "whole-second span out of range"
    (Invalid_argument "Time.span_of_sec: out of range") (fun () ->
      ignore (Time.span_of_sec 20_000_000_000));
  (* -5e9 s would wrap to a positive instant about 134 years out. *)
  Alcotest.check_raises "negative whole seconds"
    (Invalid_argument "Time.of_sec: negative") (fun () ->
      ignore (Time.of_sec (-5_000_000_000)));
  checki "the last whole second fits" 4_611_686_018_000_000_000
    (Time.to_ns (Time.of_sec (max_int / 1_000_000_000)))

let test_time_compare () =
  checkb "lt" true Time.(of_sec 1 < of_sec 2);
  checkb "le eq" true Time.(of_sec 2 <= of_sec 2);
  checkb "gt" true Time.(of_sec 3 > of_sec 2);
  checki "min" (Time.to_ns (Time.of_sec 1))
    (Time.to_ns (Time.min (Time.of_sec 1) (Time.of_sec 2)))

(* ---------- random Sim-API programs ---------- *)

(* Random interleavings of the whole Sim API, checked against a
   reference model by [prop_sim_events_in_time_order]. Each op runs in
   its own scheduled event; Burst + Bulk push the tombstone population
   past the compaction threshold so the lazy-deletion sweep runs. Tie
   builds same-instant runs: its one-shots share an instant with each
   other and often with other ops' events, and its echo schedules at
   the current instant from inside a callback, so it joins a run that
   is being dispatched, starts one right after a run has emptied, or
   starts one behind runs still queued at that instant. Mid cancels
   inside a run, and a sweep that fires while a Bulk is half done
   filters runs that keep some of their events. *)
type sim_op =
  | Sched of int  (* one-shot, ms after the driver fires *)
  | Every of int  (* periodic, period in ms *)
  | Cancel of int  (* cancel the (i mod n)-th handle issued so far *)
  | Burst  (* 80 one-shots spread ahead, all handles retained *)
  | Bulk  (* cancel every handle issued so far *)
  | Tie of int * int * int
      (* k one-shots at one instant, ms after the op runs (0: the op's
         own instant); the e-th, if e < k, schedules a one-shot at its
         own instant when it fires *)
  | Mid of int  (* cancel the middle one-shot of the (j mod n)-th Tie *)

let sim_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun ms -> Sched ms) (int_bound 1000));
        (2, map (fun p -> Every (1 + p)) (int_bound 50));
        (3, map (fun i -> Cancel i) (int_bound 1000));
        (1, return Burst);
        (1, return Bulk);
        ( 4,
          int_range 1 8 >>= fun k ->
          map2 (fun ms e -> Tie (k, ms, e)) (int_bound 20) (int_bound k) );
        (2, map (fun j -> Mid j) (int_bound 1000));
      ])

let pp_sim_op ppf = function
  | Sched ms -> Format.fprintf ppf "Sched %d" ms
  | Every p -> Format.fprintf ppf "Every %d" p
  | Cancel i -> Format.fprintf ppf "Cancel %d" i
  | Burst -> Format.fprintf ppf "Burst"
  | Bulk -> Format.fprintf ppf "Bulk"
  | Tie (k, ms, e) -> Format.fprintf ppf "Tie (%d, %d, %d)" k ms e
  | Mid j -> Format.fprintf ppf "Mid %d" j

let sim_op_arb =
  QCheck.make
    ~print:(Format.asprintf "%a" (Format.pp_print_list pp_sim_op))
    QCheck.Gen.(list_size (1 -- 30) sim_op_gen)

(* Op [i] runs at [i] ms; the run ends 1.5 s after the last op. Marks
   record (instant in ns, id); Burst ids are 1000 + 100i + j, the
   one-shots of a Tie 100_000 + 100i + j and its echo 200_000 + i. *)
let ops_horizon_ms ops = List.length ops + 1500

let nth_mod l k = List.nth l (k mod List.length l)

let run_ops ops =
  let sim = Sim.create () in
  let trace = ref [] in
  let mark id () = trace := (Time.to_ns (Sim.now sim), id) :: !trace in
  let handles = ref [] and ties = ref [] in
  let keep h = handles := h :: !handles in
  let schedule_after ms f =
    let h = Sim.schedule_after sim (Time.span_of_ms ms) f in
    keep h;
    h
  in
  List.iteri
    (fun i op ->
      ignore
        (Sim.schedule_at sim (Time.of_ms i) (fun () ->
             match op with
             | Sched ms -> ignore (schedule_after ms (mark i))
             | Every p -> keep (Sim.every sim ~period:(Time.span_of_ms p) (mark i))
             | Cancel k -> (
                 match !handles with
                 | [] -> ()
                 | hs -> Sim.cancel sim (nth_mod hs k))
             | Burst ->
                 for j = 0 to 79 do
                   ignore (schedule_after (500 + j) (mark (1000 + (100 * i) + j)))
                 done
             | Bulk -> List.iter (Sim.cancel sim) !handles
             | Tie (k, ms, e) ->
                 let group =
                   List.init k (fun j ->
                       schedule_after ms (fun () ->
                           mark (100_000 + (100 * i) + j) ();
                           if j = e then
                             ignore (schedule_after 0 (mark (200_000 + i)))))
                 in
                 ties := group :: !ties
             | Mid j -> (
                 match !ties with
                 | [] -> ()
                 | gs ->
                     let g = nth_mod gs j in
                     Sim.cancel sim (List.nth g (List.length g / 2))))))
    ops;
  Sim.run_until sim (Time.of_ms (ops_horizon_ms ops));
  ( List.rev !trace,
    Sim.events_dispatched sim,
    Sim.live_pending sim,
    Sim.max_live_pending sim )

(* The same program on a reference scheduler: pending entries in a
   stdlib map keyed by (instant, scheduling sequence number), so the
   least key is the next to fire and equal instants fire in scheduling
   order. A handle is a flag shared by everything it covers: a
   cancelled one-shot never fires, and an [every] chain fires at each
   period until its flag is set. Sequence numbers are drawn in the
   order Sim draws them — a chain's next firing is scheduled after its
   callback runs. An entry is live while its flag is clear; the live
   count is kept as entries are added, popped and cancelled, and its
   peak is taken after every add, where Sim takes its own. *)
module Model_queue = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type model_handle = { mutable cancelled : bool; mutable queued : bool }

let model_ops ops =
  let pending = ref Model_queue.empty and next_seq = ref 0 in
  let now = ref 0 and fired = ref 0 and trace = ref [] in
  let live = ref 0 and peak = ref 0 in
  let add at h act =
    pending := Model_queue.add (at, !next_seq) (h, act) !pending;
    incr next_seq;
    h.queued <- true;
    incr live;
    peak := max !peak !live
  in
  let cancel h =
    if not h.cancelled then begin
      h.cancelled <- true;
      if h.queued then decr live
    end
  in
  let mark id () = trace := (!now * 1_000_000, id) :: !trace in
  let handles = ref [] and ties = ref [] in
  let handle () =
    let h = { cancelled = false; queued = false } in
    handles := h :: !handles;
    h
  in
  let one_shot at act =
    let h = handle () in
    add at h act;
    h
  in
  let rec chain h ~period at id =
    add at h (fun () ->
        mark id ();
        if not h.cancelled then chain h ~period (at + period) id)
  in
  List.iteri
    (fun i op ->
      add i { cancelled = false; queued = false } (fun () ->
          match op with
          | Sched ms -> ignore (one_shot (i + ms) (mark i))
          | Every p -> chain (handle ()) ~period:p (i + p) i
          | Cancel k -> (
              match !handles with [] -> () | hs -> cancel (nth_mod hs k))
          | Burst ->
              for j = 0 to 79 do
                ignore (one_shot (i + 500 + j) (mark (1000 + (100 * i) + j)))
              done
          | Bulk -> List.iter cancel !handles
          | Tie (k, ms, e) ->
              let group =
                List.init k (fun j ->
                    one_shot (i + ms) (fun () ->
                        mark (100_000 + (100 * i) + j) ();
                        if j = e then
                          ignore (one_shot !now (mark (200_000 + i)))))
              in
              ties := group :: !ties
          | Mid j -> (
              match !ties with
              | [] -> ()
              | gs ->
                  let g = nth_mod gs j in
                  cancel (List.nth g (List.length g / 2)))))
    ops;
  let horizon = ops_horizon_ms ops in
  let rec loop () =
    match Model_queue.min_binding_opt !pending with
    | Some (((at, _) as key), (h, act)) when at <= horizon ->
        pending := Model_queue.remove key !pending;
        now := at;
        h.queued <- false;
        if not h.cancelled then begin
          decr live;
          incr fired;
          act ()
        end;
        loop ()
    | _ -> ()
  in
  loop ();
  (List.rev !trace, !fired, !live, !peak)

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
   dispatch traces AND identical counters. A [T_self] op turns a timer
   into a self-re-arming loop for a few firings, exercising the
   fired-then-re-armed (reuse-in-place) path; [T_arm] over a pending
   arm exercises the supersede (tombstone + fresh record) path. *)
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

let run_timer_ops ops =
  let sim = Sim.create () in
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
   last handle unconditionally, as [Sim.disarm] does. Once the handle
   has fired that cancel is a no-op on both sides, so it must leave
   [live_pending] and [max_live_pending] alone. *)
let run_ref_ops ops =
  let sim = Sim.create () in
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
  QCheck.Test.make ~name:"reusable timers match cancel+reschedule"
    ~count:100 timer_op_arb
    (fun ops -> run_timer_ops ops = run_ref_ops ops)

(* ---------- the slot table ---------- *)

(* A thunk whose captured value counts its own collection in
   [collected]. Not inlined, so no caller's frame keeps the value. *)
let[@inline never] tracked collected =
  let v = ref 0 in
  Gc.finalise (fun _ -> incr collected) v;
  fun () -> incr v

let[@inline never] schedule_tracked sim collected at =
  ignore (Sim.schedule_at sim at (tracked collected) : Sim.handle)

(* Schedules [k] tracked one-shots and cancels them, keeping no handle. *)
let[@inline never] cancel_tracked sim collected k at =
  let hs = List.init k (fun _ -> Sim.schedule_at sim at (tracked collected)) in
  List.iter (Sim.cancel sim) hs

let collected_after_gc collected =
  Gc.full_major ();
  !collected

(* The queue never retains a thunk it is done with, on each of the three
   paths that free a slot: dispatch, the tombstone sweep, and a shrink
   that renumbers the live slots, also when the event sat in the middle
   of a same-instant run. A value captured by a thunk the queue still
   holds must stay live. Each simulator is used after the last
   collection, so it is live throughout. *)
let test_sim_slots_release_thunks () =
  let sim = Sim.create () in
  (* dispatch *)
  let fired = ref 0 in
  schedule_tracked sim fired (Time.of_ms 1);
  Sim.run_until sim (Time.of_ms 1);
  checki "dispatched thunk collected" 1 (collected_after_gc fired);
  (* sweep: ten tracked tombstones, then 55 more cancels pass the
     threshold and the sweep drops all 65; the 41 events left fill
     more than a quarter of the 128 slots, so no shrink follows *)
  let swept = ref 0 and queued = ref 0 in
  let far = Time.of_sec 100 in
  cancel_tracked sim swept 10 far;
  let others = List.init 55 (fun _ -> Sim.schedule_at sim far ignore) in
  for _ = 1 to 40 do
    ignore (Sim.schedule_at sim far ignore : Sim.handle)
  done;
  schedule_tracked sim queued (Time.of_sec 50);
  checki "tombstones held until the sweep" 0 (collected_after_gc swept);
  List.iter (Sim.cancel sim) others;
  checki "swept" 41 (Sim.pending sim);
  checki "swept thunks collected" 10 (collected_after_gc swept);
  (* shrink: in a fresh simulator the k-th push takes slot k, so the
     last of 200 one-shots holds slot 199 of 256; dispatching the first
     190 shrinks the table to 32 slots, renumbering it *)
  let renumbered = ref 0 in
  let small = Sim.create () in
  for i = 1 to 199 do
    ignore (Sim.schedule_at small (Time.of_ms i) ignore : Sim.handle)
  done;
  schedule_tracked small renumbered (Time.of_ms 200);
  Sim.run_until small (Time.of_ms 190);
  checki "renumbered thunk kept while queued" 0
    (collected_after_gc renumbered);
  Sim.run_until small (Time.of_ms 200);
  checki "renumbered thunk collected after dispatch" 1
    (collected_after_gc renumbered);
  checki "all dispatched" 200 (Sim.events_dispatched small);
  checki "queued thunk kept" 0 (collected_after_gc queued);
  checki "41 live events" 41 (Sim.live_pending sim);
  (* mid-run dispatch: four events at 3 s form one run; the third reads
     the collection of the second's thunk while the fourth is queued *)
  let runs = Sim.create () in
  let t3 = Time.of_sec 3 in
  let mid = ref 0 and seen = ref (-1) in
  ignore (Sim.schedule_at runs t3 ignore : Sim.handle);
  schedule_tracked runs mid t3;
  ignore
    (Sim.schedule_at runs t3 (fun () -> seen := collected_after_gc mid)
      : Sim.handle);
  ignore (Sim.schedule_at runs t3 ignore : Sim.handle);
  Sim.run_until runs t3;
  checki "mid-run thunk collected after its dispatch" 1 !seen;
  (* mid-run sweep: a tracked tombstone between two events at 5 s; the
     64th of 65 cancelled fillers passes the threshold, and the sweep
     drops it with them while the events around it stay in their run *)
  let t5 = Time.of_sec 5 in
  let dropped = ref 0 and order = ref [] in
  ignore (Sim.schedule_at runs t5 (fun () -> order := 1 :: !order) : Sim.handle);
  cancel_tracked runs dropped 1 t5;
  ignore (Sim.schedule_at runs t5 (fun () -> order := 3 :: !order) : Sim.handle);
  let fillers = List.init 65 (fun _ -> Sim.schedule_at runs far ignore) in
  checki "mid-run tombstone held until the sweep" 0
    (collected_after_gc dropped);
  List.iter (Sim.cancel runs) fillers;
  check Alcotest.(pair int int) "swept mid-run" (3, 2)
    (Sim.pending runs, Sim.live_pending runs);
  checki "mid-run swept thunk collected" 1 (collected_after_gc dropped);
  Sim.run_until runs t5;
  check Alcotest.(list int) "run kept around the sweep" [ 1; 3 ] (List.rev !order)

(* Slots are recycled across every resize. A run that grows the table,
   sweeps it, pushes into the slots the sweep freed, shrinks it, grows
   it again over recycled slots and then re-arms a reusable timer must
   dispatch exactly what was scheduled, in order, with the counts any
   queue would report. *)
let test_sim_slot_recycling () =
  let sim = Sim.create () in
  let log = ref [] in
  let mark tag () =
    log := (tag, Time.to_ns (Sim.now sim) / 1_000_000) :: !log
  in
  let at tag ms =
    ignore (Sim.schedule_at sim (Time.of_ms ms) (mark tag) : Sim.handle)
  in
  let counts () =
    (Sim.pending sim, Sim.live_pending sim, Sim.max_pending sim)
  in
  let counts_t = Alcotest.(triple int int int) in
  (* grow: 16 -> 128 slots *)
  let hs =
    List.init 100 (fun i ->
        Sim.schedule_at sim (Time.of_ms (i + 1)) (mark "once"))
  in
  let tmr = Sim.timer sim (mark "timer") in
  Sim.arm_at sim tmr (Time.of_ms 75);
  check counts_t "grown" (101, 101, 101) (counts ());
  (* sweep: cancel seven of every ten one-shots; the 65th cancel drops
     65 tombstones from all over the heap, and the last 5 stay queued *)
  List.iteri (fun i h -> if i mod 10 < 7 then Sim.cancel sim h) hs;
  check counts_t "swept" (36, 31, 101) (counts ());
  List.iter (at "late") [ 72; 78; 90; 95 ];
  check counts_t "pushed into freed slots" (40, 35, 101) (counts ());
  (* shrink: 27 dispatches (24 one-shots, 2 late, the timer) halve the
     table at 32 pending and again at 16 *)
  Sim.run_until sim (Time.of_ms 80);
  check counts_t "shrunk" (13, 8, 101) (counts ());
  (* grow again over recycled slots: 32 -> 128 *)
  for ms = 200 to 289 do
    at "once" ms
  done;
  check counts_t "regrown" (103, 98, 103) (counts ());
  (* the timer fired, so it re-arms its own record in place *)
  Sim.arm_at sim tmr (Time.of_ms 150);
  check counts_t "timer re-armed" (104, 99, 104) (counts ());
  Sim.run_until sim (Time.of_sec 1);
  check counts_t "drained" (0, 0, 104) (counts ());
  let once ms = ("once", ms) and late ms = ("late", ms) in
  let survivors a b =
    List.filter_map
      (fun ms -> if (ms - 1) mod 10 >= 7 then Some (once ms) else None)
      (List.init (b - a + 1) (fun k -> a + k))
  in
  check
    Alcotest.(list (pair string int))
    "dispatch order"
    (survivors 1 70
    @ [ late 72; ("timer", 75); once 78; late 78; once 79; once 80 ]
    @ survivors 81 90 @ [ late 90; late 95 ] @ survivors 96 100
    @ [ ("timer", 150) ]
    @ List.init 90 (fun k -> once (200 + k)))
    (List.rev !log);
  checki "dispatched" 126 (Sim.events_dispatched sim);
  (* shrink over runs: twelve events at each of 1,100 .. 1,109 ms,
     latest instant first, then three more at 1,109 ms, which start a
     second run there (the newest). The table grows 16 -> 128; at 32
     pending it halves while the run at 1,107 ms is half dispatched and
     three runs wait behind it, renumbering every slot. One more event
     at 1,109 ms then fires after the fifteen queued there. *)
  log := [];
  let tag ms j = Printf.sprintf "%d.%d" ms j in
  let at_j ms j =
    ignore
      (Sim.schedule_at sim (Time.of_ms ms) (mark (tag ms j)) : Sim.handle)
  in
  for ms = 1109 downto 1100 do
    for j = 0 to 11 do
      at_j ms j
    done
  done;
  List.iter (at_j 1109) [ 12; 13; 14 ];
  check counts_t "runs queued" (123, 123, 123) (counts ());
  Sim.run_until sim (Time.of_ms 1107);
  check counts_t "shrunk over runs" (27, 27, 123) (counts ());
  at_j 1109 15;
  check counts_t "pushed after the shrink" (28, 28, 123) (counts ());
  Sim.run_until sim (Time.of_sec 2);
  let expected =
    List.concat_map
      (fun ms ->
        List.init (if ms = 1109 then 16 else 12) (fun j ->
            (tag ms j, ms)))
      (List.init 10 (fun k -> 1100 + k))
  in
  check Alcotest.(list (pair string int)) "dispatch order over runs" expected
    (List.rev !log);
  check counts_t "drained again" (0, 0, 123) (counts ())

(* ---------- Event_queue ---------- *)

(* The benchmark suite labels every result set with this string. *)
let test_scheduler_label () =
  check Alcotest.string "label" "heap"
    (Engine.Event_queue.backend_to_string (Engine.Event_queue.default ()))

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    checkb "same" true (Prng.float a = Prng.float b)
  done

let test_prng_streams_differ () =
  let root = Prng.create ~seed:7L in
  let a = Prng.split root ~label:"a" and b = Prng.split root ~label:"b" in
  checkb "streams differ" true (Prng.float a <> Prng.float b)

let test_prng_split_stable () =
  let r1 = Prng.create ~seed:9L and r2 = Prng.create ~seed:9L in
  let a = Prng.split r1 ~label:"x" and b = Prng.split r2 ~label:"x" in
  checkb "same stream" true (Prng.float a = Prng.float b)

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
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.uniform g ~lo:2.0 ~hi:4.0
  done;
  checkb "mean near 3" true (Float.abs ((!sum /. float_of_int n) -. 3.0) < 0.02)

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
    (fun () -> ignore (Prng.int g ~bound:0))

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

(* Horizon edge: an event at exactly the horizon fires in that
   [run_until] call; a run of equal instants at the horizon fires whole,
   including same-instant work its own thunks add mid-run; a run
   straddling two [run_until] calls at the same horizon neither drops
   nor double-fires; and the first event past the horizon stays put. *)
let test_sim_horizon_edge () =
  let sim = Sim.create () in
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

(* Cancelling a record that has already left the queue is a no-op: it
   must not count as a tombstone, or the live count goes negative and
   later high-water marks read low. *)
let test_sim_cancel_after_fire () =
  let sim = Sim.create () in
  let h = Sim.schedule_at sim (Time.of_sec 1) ignore in
  Sim.run_until sim (Time.of_sec 2);
  Sim.cancel sim h;
  checki "cancel a fired event" 0 (Sim.live_pending sim);
  let tmr = Sim.timer sim ignore in
  Sim.arm_at sim tmr (Time.of_sec 3);
  Sim.run_until sim (Time.of_sec 4);
  Sim.disarm sim tmr;
  checki "disarm a fired timer" 0 (Sim.live_pending sim);
  for i = 5 to 7 do
    ignore (Sim.schedule_at sim (Time.of_sec i) ignore)
  done;
  checki "live" 3 (Sim.live_pending sim);
  checki "max live" 3 (Sim.max_live_pending sim)

(* A periodic chain re-arms its one record after each firing, so its
   callback runs while the record is out of the queue: cancelling the
   handle there stops the chain without leaving a tombstone. *)
let test_sim_every_cancels_itself () =
  let sim = Sim.create () in
  let count = ref 0 in
  let self = ref None in
  self :=
    Some
      (Sim.every sim ~period:(Time.span_of_sec 1) (fun () ->
           incr count;
           if !count = 3 then Option.iter (Sim.cancel sim) !self));
  Sim.run_until sim (Time.of_sec 10);
  checki "three firings" 3 !count;
  checki "live" 0 (Sim.live_pending sim);
  checki "pending" 0 (Sim.pending sim)

(* A chain cancelled while queued is a tombstone; once the sweep has
   dropped it, cancelling the handle again changes nothing. *)
let test_sim_every_cancel_after_sweep () =
  let sim = Sim.create () in
  let count = ref 0 in
  let chain =
    Sim.every sim ~period:(Time.span_of_sec 1) (fun () -> incr count)
  in
  let far =
    List.init 100 (fun i -> Sim.schedule_at sim (Time.of_sec (100 + i)) ignore)
  in
  Sim.cancel sim chain;
  List.iter (Sim.cancel sim) far;
  checkb
    (Printf.sprintf "swept (pending %d)" (Sim.pending sim))
    true
    (Sim.pending sim < 101);
  let counts () = (Sim.pending sim, Sim.live_pending sim) in
  let before = counts () in
  Sim.cancel sim chain;
  check Alcotest.(pair int int) "second cancel is a no-op" before (counts ());
  checki "live" 0 (Sim.live_pending sim);
  Sim.run_until sim (Time.of_sec 300);
  checki "never fired" 0 !count;
  checki "nothing dispatched" 0 (Sim.events_dispatched sim)

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

(* Two inputs, two models: instants scheduled up front must fire as
   their stable sort, and a random Sim-API program ([run_ops]) must
   produce exactly the reference scheduler's trace, dispatch count,
   final live count and peak live count ([model_ops]). *)
let prop_sim_events_in_time_order =
  QCheck.Test.make ~name:"events dispatch in nondecreasing time order"
    ~count:100
    QCheck.(pair (list (int_bound 1000)) sim_op_arb)
    (fun (times, ops) ->
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
      && List.for_all2 ( = ) f (List.stable_sort Int.compare times)
      && run_ops ops = model_ops ops)

(* ---------- Trace ---------- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:3 in
  for i = 1 to 5 do
    Trace.record tr (Time.of_sec i) i
  done;
  let last f = Option.map snd (Trace.find_last tr ~f) in
  let check_last = check (Alcotest.option Alcotest.int) in
  check_last "newest first" (Some 5) (last (fun _ -> true));
  check_last "keeps the third newest" (Some 3) (last (fun x -> x < 4));
  check_last "evicted the two oldest" None (last (fun x -> x < 3))

let test_trace_find_last () =
  let tr = Trace.create ~capacity:10 in
  List.iter (fun i -> Trace.record tr (Time.of_sec i) i) [ 1; 2; 3; 4 ];
  checkb "finds newest even" true
    (Trace.find_last tr ~f:(fun x -> x mod 2 = 0) = Some (Time.of_sec 4, 4));
  checkb "none" true (Trace.find_last tr ~f:(fun x -> x > 10) = None)

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
      ( "scheduler-name",
        [ Alcotest.test_case "benchmark label" `Quick test_scheduler_label ] );
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
          Alcotest.test_case "horizon edge" `Quick test_sim_horizon_edge;
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
          Alcotest.test_case "cancel after fire" `Quick
            test_sim_cancel_after_fire;
          Alcotest.test_case "every cancels itself" `Quick
            test_sim_every_cancels_itself;
          Alcotest.test_case "every cancel after sweep" `Quick
            test_sim_every_cancel_after_sweep;
          Alcotest.test_case "jitter instants pinned" `Quick
            test_sim_jitter_instants_pinned;
          Alcotest.test_case "dispatch count" `Quick
            test_sim_dispatched_counter;
          Alcotest.test_case "timer supersede and reuse" `Quick
            test_sim_timer_supersede_and_reuse;
          Alcotest.test_case "timer disarm" `Quick test_sim_timer_disarm;
          Alcotest.test_case "slots release thunks" `Quick
            test_sim_slots_release_thunks;
          Alcotest.test_case "slot recycling" `Quick test_sim_slot_recycling;
        ] );
      qsuite "sim-props"
        [ prop_sim_events_in_time_order; prop_timers_equivalent ];
      ( "trace",
        [
          Alcotest.test_case "ring" `Quick test_trace_ring;
          Alcotest.test_case "find_last" `Quick test_trace_find_last;
        ] );
    ]
