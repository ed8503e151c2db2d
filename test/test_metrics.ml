(* Tests for the evaluation metrics: relative deviation and stability
   summaries. *)

module Time = Engine.Time
module Deviation = Metrics.Deviation
module Stability = Metrics.Stability

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let sec = Time.of_sec

(* ---------- Deviation ---------- *)

let test_level_at () =
  let log = [ (sec 0, 1); (sec 10, 3); (sec 20, 2) ] in
  checki "first change applies" 1 (Deviation.level_at log (Time.of_ms 1));
  checki "before any change" 0 (Deviation.level_at [ (sec 5, 2) ] (sec 1));
  checki "mid" 3 (Deviation.level_at log (sec 15));
  checki "after" 2 (Deviation.level_at log (sec 30));
  checki "at change" 3 (Deviation.level_at log (sec 10))

let test_deviation_constant_at_optimal () =
  let log = [ (sec 0, 4) ] in
  checkf "zero deviation" 0.0
    (Deviation.relative_deviation ~changes:log ~optimal:4
       ~window:(sec 0, sec 100))

let test_deviation_constant_off_by_one () =
  let log = [ (sec 0, 3) ] in
  (* |3-4| / 4 over the whole window *)
  checkf "quarter" 0.25
    (Deviation.relative_deviation ~changes:log ~optimal:4
       ~window:(sec 0, sec 100))

let test_deviation_piecewise () =
  (* At 2 for 50 s, at 4 for 50 s, optimal 4: err = 2*50, norm = 4*100. *)
  let log = [ (sec 0, 2); (sec 50, 4) ] in
  checkf "0.25" 0.25
    (Deviation.relative_deviation ~changes:log ~optimal:4
       ~window:(sec 0, sec 100))

let test_deviation_window_clips () =
  (* The same log, but windowed to the second half only: deviation 0. *)
  let log = [ (sec 0, 2); (sec 50, 4) ] in
  checkf "clipped" 0.0
    (Deviation.relative_deviation ~changes:log ~optimal:4
       ~window:(sec 50, sec 100))

let test_deviation_change_before_window () =
  let log = [ (sec 0, 1); (sec 10, 4) ] in
  checkf "uses level in force" 0.0
    (Deviation.relative_deviation ~changes:log ~optimal:4
       ~window:(sec 20, sec 40))

let test_deviation_invalid () =
  checkb "empty window" true
    (try
       ignore
         (Deviation.relative_deviation ~changes:[] ~optimal:1
            ~window:(sec 5, sec 5));
       false
     with Invalid_argument _ -> true);
  checkb "optimal 0" true
    (try
       ignore
         (Deviation.relative_deviation ~changes:[] ~optimal:0
            ~window:(sec 0, sec 5));
       false
     with Invalid_argument _ -> true)

let test_mean_deviation () =
  let a = ([ (sec 0, 4) ], 4) in
  let b = ([ (sec 0, 2) ], 4) in
  checkf "mean of 0 and .5" 0.25
    (Deviation.mean_relative_deviation ~receivers:[ a; b ]
       ~window:(sec 0, sec 10));
  checkf "empty" 0.0
    (Deviation.mean_relative_deviation ~receivers:[] ~window:(sec 0, sec 10))

let prop_deviation_nonnegative =
  QCheck.Test.make ~name:"deviation >= 0, = 0 iff always at optimal"
    ~count:200
    QCheck.(pair (list (pair (int_bound 100) (int_bound 6))) (int_range 1 6))
    (fun (raw, optimal) ->
      let changes =
        List.sort compare raw |> List.map (fun (s, l) -> (sec s, l))
      in
      let d =
        Deviation.relative_deviation ~changes ~optimal
          ~window:(sec 0, sec 200)
      in
      d >= 0.0)

(* ---------- Stability ---------- *)

let test_stability_counts () =
  let log = [ (sec 0, 1); (sec 10, 2); (sec 20, 3); (sec 30, 2) ] in
  let s = Stability.summarize ~changes:log ~window:(sec 5, sec 35) in
  checki "three inside" 3 s.changes;
  checkf "gap 10s" 10.0 s.mean_gap_s

let test_stability_excludes_boundaries () =
  let log = [ (sec 0, 1); (sec 10, 2) ] in
  let s = Stability.summarize ~changes:log ~window:(sec 0, sec 10) in
  checki "boundary changes excluded" 0 s.changes

let test_stability_few_changes_gap () =
  let log = [ (sec 5, 2) ] in
  let s = Stability.summarize ~changes:log ~window:(sec 0, sec 60) in
  checki "one" 1 s.changes;
  checkf "gap = window" 60.0 s.mean_gap_s

let test_stability_worst () =
  let quiet = [ (sec 1, 1) ] in
  let busy = [ (sec 1, 1); (sec 2, 2); (sec 3, 1) ] in
  let s = Stability.worst ~logs:[ quiet; busy ] ~window:(sec 0, sec 10) in
  checki "picks busy" 3 s.changes;
  let none = Stability.worst ~logs:[] ~window:(sec 0, sec 10) in
  checki "empty" 0 none.changes

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "metrics"
    [
      ( "deviation",
        [
          Alcotest.test_case "level_at" `Quick test_level_at;
          Alcotest.test_case "constant optimal" `Quick
            test_deviation_constant_at_optimal;
          Alcotest.test_case "off by one" `Quick
            test_deviation_constant_off_by_one;
          Alcotest.test_case "piecewise" `Quick test_deviation_piecewise;
          Alcotest.test_case "window clips" `Quick test_deviation_window_clips;
          Alcotest.test_case "level before window" `Quick
            test_deviation_change_before_window;
          Alcotest.test_case "invalid" `Quick test_deviation_invalid;
          Alcotest.test_case "mean" `Quick test_mean_deviation;
        ] );
      qsuite "deviation-props" [ prop_deviation_nonnegative ];
      ( "stability",
        [
          Alcotest.test_case "counts" `Quick test_stability_counts;
          Alcotest.test_case "boundaries" `Quick
            test_stability_excludes_boundaries;
          Alcotest.test_case "few changes" `Quick test_stability_few_changes_gap;
          Alcotest.test_case "worst" `Quick test_stability_worst;
        ] );
    ]
