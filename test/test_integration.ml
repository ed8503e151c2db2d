(* End-to-end simulations: full TopoSense stack (sources, multicast,
   reports, discovery, controller, receiver agents) on the paper's
   topologies, checking convergence, fairness, robustness to lost
   control traffic, and staleness handling. *)

module Time = Engine.Time
module Experiment = Scenarios.Experiment
module Builders = Scenarios.Builders
module Figures = Scenarios.Figures

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let run ?(duration = 300) ?(traffic = Experiment.Cbr)
    ?(scheme = Experiment.Toposense) ?params ?seed spec =
  Experiment.run ~spec ~traffic ~scheme ?params ?seed
    ~duration:(Time.of_sec duration) ()

(* Deviation of one receiver over the last third of the run — the
   "settled" regime. *)
let settled_deviation (o : Experiment.outcome) (r : Experiment.receiver_outcome) =
  let t0 = Time.of_ns (2 * Time.to_ns o.duration / 3) in
  Metrics.Deviation.relative_deviation ~changes:r.changes ~optimal:r.optimal
    ~window:(t0, o.duration)

let test_topology_a_converges () =
  let o = run (Builders.topology_a ~receivers_per_set:2) in
  List.iter
    (fun (r : Experiment.receiver_outcome) ->
      let dev = settled_deviation o r in
      checkb
        (Printf.sprintf "n%d settles near optimum %d (dev %.3f, final %d)"
           r.node r.optimal dev r.final_level)
        true (dev < 0.45);
      checkb "never above optimal +1 at end" true
        (r.final_level <= r.optimal + 1))
    o.receivers

let test_topology_a_both_sets_distinct () =
  let o = run (Builders.topology_a ~receivers_per_set:2) in
  let finals = List.map (fun (r : Experiment.receiver_outcome) -> r.final_level) in
  let fast = List.filteri (fun i _ -> i < 2) o.receivers |> finals in
  let slow = List.filteri (fun i _ -> i >= 2) o.receivers |> finals in
  checkb "fast branch higher than slow" true
    (List.fold_left min 99 fast > List.fold_left max 0 slow)

let test_topology_b_fairness () =
  let o = run ~duration:400 (Builders.topology_b ~session_count:4) in
  let devs =
    List.map
      (fun (r : Experiment.receiver_outcome) -> settled_deviation o r)
      o.receivers
  in
  List.iteri
    (fun i d ->
      checkb (Printf.sprintf "session %d deviation %.3f bounded" i d) true
        (d < 0.45))
    devs;
  (* No starved session: everyone ends within 2 layers of everyone else. *)
  let finals = List.map (fun (r : Experiment.receiver_outcome) -> r.final_level) o.receivers in
  let lo = List.fold_left min 99 finals and hi = List.fold_left max 0 finals in
  checkb (Printf.sprintf "spread %d..%d fair" lo hi) true (hi - lo <= 2)

let test_oracle_scheme_lossless () =
  let o =
    run ~duration:120 ~scheme:Experiment.Oracle
      (Builders.topology_a ~receivers_per_set:2)
  in
  List.iter
    (fun (r : Experiment.receiver_outcome) ->
      checki "level = optimal" r.optimal r.final_level;
      checkb "no changes after start" true (List.length r.changes <= 1))
    o.receivers

let test_rlm_scheme_runs () =
  let o =
    run ~duration:300 ~scheme:Experiment.Rlm
      (Builders.topology_a ~receivers_per_set:2)
  in
  List.iter
    (fun (r : Experiment.receiver_outcome) ->
      checkb
        (Printf.sprintf "rlm n%d within [1, opt+2] (final %d, opt %d)" r.node
           r.final_level r.optimal)
        true
        (r.final_level >= 1 && r.final_level <= r.optimal + 2))
    o.receivers

(* Nothing reads discovery's captures without a control plane, so the
   RLM and Oracle worlds register no session and capture nothing. *)
let test_no_control_captures_nothing () =
  let spec = Builders.topology_a ~receivers_per_set:2 in
  let registered control =
    let w =
      Scenarios.World.build ~spec ~control ~agents:Scenarios.World.No_agents ()
    in
    List.length (Discovery.Service.sessions w.Scenarios.World.discovery)
  in
  checki "no control plane, no session" 0
    (registered Scenarios.World.No_control);
  checki "a controller's session" 1
    (registered (Scenarios.World.Flat { probe = false }))

let test_vbr_still_converges () =
  let o = run ~traffic:(Experiment.Vbr 3.0) (Builders.topology_a ~receivers_per_set:2) in
  List.iter
    (fun (r : Experiment.receiver_outcome) ->
      let dev = settled_deviation o r in
      checkb
        (Printf.sprintf "vbr n%d dev %.3f bounded" r.node dev)
        true (dev < 0.6))
    o.receivers

let test_control_traffic_flows () =
  let o = run ~duration:100 (Builders.topology_a ~receivers_per_set:1) in
  checkb "controller got reports" true (o.reports_received > 50);
  checkb "suggestions sent" true (o.suggestions_sent > 20);
  checki "no skipped snapshots at zero staleness" 0 o.skipped_no_snapshot

let test_staleness_skips_then_works () =
  let params =
    { Toposense.Params.default with staleness = Time.span_of_sec 10 }
  in
  let o = run ~duration:200 ~params (Builders.topology_a ~receivers_per_set:1) in
  (* Early intervals have no 10 s-old snapshot yet. *)
  checkb "initial intervals skipped" true (o.skipped_no_snapshot > 0);
  (* It still converges, just more slowly/noisily. *)
  List.iter
    (fun (r : Experiment.receiver_outcome) ->
      checkb
        (Printf.sprintf "stale n%d final %d within 2 of %d" r.node
           r.final_level r.optimal)
        true
        (abs (r.final_level - r.optimal) <= 2))
    o.receivers

let test_staleness_degrades_gracefully () =
  let dev_at staleness =
    let params = { Toposense.Params.default with staleness } in
    let o =
      run ~duration:400 ~params ~traffic:(Experiment.Vbr 3.0)
        (Builders.topology_a ~receivers_per_set:2)
    in
    let receivers =
      List.map
        (fun (r : Experiment.receiver_outcome) -> (r.changes, r.optimal))
        o.receivers
    in
    Metrics.Deviation.mean_relative_deviation ~receivers
      ~window:(Time.of_sec 100, o.duration)
  in
  let fresh = dev_at 0 in
  let stale = dev_at (Time.span_of_sec 18) in
  checkb
    (Printf.sprintf "stale (%.3f) within 3x+0.2 of fresh (%.3f)" stale fresh)
    true
    (stale < (3.0 *. fresh) +. 0.2)

let test_receivers_survive_dead_controller () =
  (* Build the full stack but never start the controller: receivers must
     fall back to unilateral control and still avoid sustained loss. *)
  let sim = Engine.Sim.create () in
  let spec = Builders.topology_a ~receivers_per_set:1 in
  let network = Net.Network.create ~sim spec.topology in
  let router = Multicast.Router.create ~network () in
  let layering = Traffic.Layering.paper_default in
  let source, receivers = List.hd spec.sessions in
  let session = Traffic.Session.create ~router ~source ~layering ~id:0 in
  ignore
    (Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
       ~rng:(Engine.Sim.rng sim ~label:"src") ());
  let params = Toposense.Params.default in
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network ~router ~params ~node
            ~controller:spec.controller_node ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:1;
        Toposense.Receiver_agent.start a;
        a)
      receivers
  in
  Engine.Sim.run_until sim (Time.of_sec 400);
  List.iter
    (fun a ->
      checkb "acted unilaterally" true
        (Toposense.Receiver_agent.unilateral_actions a > 0);
      checki "no suggestions ever" 0
        (Toposense.Receiver_agent.suggestions_received a);
      let level = Toposense.Receiver_agent.level a ~session:0 in
      checkb
        (Printf.sprintf "n%d found a working level (%d)"
           (Toposense.Receiver_agent.node a)
           level)
        true (level >= 1);
      checkb "not drowning in loss" true
        (Toposense.Receiver_agent.last_window_loss a ~session:0 < 0.4))
    agents

let test_figure1_expectations () =
  let o = run ~duration:300 (Builders.figure1 ()) in
  (* Paper Fig. 1: r3 ~1 layer, r4 ~2 layers, r6/r7 unconstrained. *)
  List.iter
    (fun (r : Experiment.receiver_outcome) ->
      checkb
        (Printf.sprintf "fig1 n%d final %d ~ opt %d" r.node r.final_level
           r.optimal)
        true
        (abs (r.final_level - r.optimal) <= 1))
    o.receivers

let test_determinism () =
  let outcome () =
    let o = run ~duration:150 ~seed:7L (Builders.topology_a ~receivers_per_set:2) in
    List.map
      (fun (r : Experiment.receiver_outcome) ->
        (r.node, List.map (fun (t, l) -> (Time.to_ns t, l)) r.changes))
      o.receivers
  in
  checkb "same seed, same run" true (outcome () = outcome ())

let test_seed_sensitivity () =
  let finals seed =
    let o = run ~duration:150 ~seed (Builders.topology_a ~receivers_per_set:2) in
    o.events_dispatched
  in
  checkb "different seeds differ" true (finals 7L <> finals 8L)

let test_fig9_series_shape () =
  let series =
    Figures.fig9 ~duration:(Time.of_sec 240) ~window:(100.0, 160.0) ()
  in
  checki "four sessions" 4 (List.length series);
  List.iter
    (fun (session, points) ->
      checkb (Printf.sprintf "session %d has samples" session) true
        (List.length points >= 50);
      List.iter
        (fun (p : Figures.series_point) ->
          checkb "levels in range" true (p.level >= 0 && p.level <= 6);
          checkb "loss in range" true (p.loss >= 0.0 && p.loss <= 1.0))
        points)
    series

let test_table1_enumeration () =
  let rows = Figures.table1 () in
  checki "48 rows" 48 (List.length rows)

let () =
  Alcotest.run "integration"
    [
      ( "toposense-e2e",
        [
          Alcotest.test_case "topology A converges" `Slow
            test_topology_a_converges;
          Alcotest.test_case "sets distinct" `Slow
            test_topology_a_both_sets_distinct;
          Alcotest.test_case "topology B fairness" `Slow test_topology_b_fairness;
          Alcotest.test_case "VBR converges" `Slow test_vbr_still_converges;
          Alcotest.test_case "control traffic" `Slow test_control_traffic_flows;
          Alcotest.test_case "figure 1" `Slow test_figure1_expectations;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "staleness skips then works" `Slow
            test_staleness_skips_then_works;
          Alcotest.test_case "staleness degrades gracefully" `Slow
            test_staleness_degrades_gracefully;
          Alcotest.test_case "dead controller" `Slow
            test_receivers_survive_dead_controller;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "oracle lossless" `Slow test_oracle_scheme_lossless;
          Alcotest.test_case "rlm runs" `Slow test_rlm_scheme_runs;
          Alcotest.test_case "no discovery capture" `Quick
            test_no_control_captures_nothing;
        ] );
      ( "harness",
        [
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_sensitivity;
          Alcotest.test_case "fig9 series" `Slow test_fig9_series_shape;
          Alcotest.test_case "table1" `Quick test_table1_enumeration;
        ] );
    ]
