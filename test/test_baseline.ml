(* Tests for the optimal-subscription oracle and the RLM baseline. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Oracle = Baseline.Static_oracle
module Rlm = Baseline.Rlm

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Static oracle ---------- *)

let test_oracle_topology_a () =
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
  let routing = Net.Routing.compute spec.topology in
  let layering = Layering.paper_default in
  let source, receivers =
    match spec.sessions with [ s ] -> s | _ -> Alcotest.fail "one session"
  in
  let optima =
    List.map
      (fun receiver ->
        Oracle.optimal_level ~topology:spec.topology ~routing ~layering
          ~sessions:spec.sessions ~source ~receiver)
      receivers
  in
  Alcotest.check (Alcotest.list Alcotest.int) "4,4 fast; 2,2 slow"
    [ 4; 4; 2; 2 ] optima

let test_oracle_topology_b_shares () =
  let spec = Scenarios.Builders.topology_b ~session_count:8 in
  let routing = Net.Routing.compute spec.topology in
  let layering = Layering.paper_default in
  List.iter
    (fun (source, receivers) ->
      List.iter
        (fun receiver ->
          checki "each session gets 4 layers" 4
            (Oracle.optimal_level ~topology:spec.topology ~routing ~layering
               ~sessions:spec.sessions ~source ~receiver))
        receivers)
    spec.sessions

let test_oracle_figure1 () =
  let spec = Scenarios.Builders.figure1 () in
  let routing = Net.Routing.compute spec.topology in
  let layering = Layering.paper_default in
  let source, receivers =
    match spec.sessions with [ s ] -> s | _ -> Alcotest.fail "one session"
  in
  let optima =
    List.map
      (fun receiver ->
        Oracle.optimal_level ~topology:spec.topology ~routing ~layering
          ~sessions:spec.sessions ~source ~receiver)
      receivers
  in
  (* Paper Fig. 1: node 3 can hope for layer 1; node 4 for layers 1,2;
     node 5's subtree is unconstrained. *)
  Alcotest.check (Alcotest.list Alcotest.int) "1;2;6;6" [ 1; 2; 6; 6 ] optima

(* The oracle divides a link among the sessions crossing it: topology
   B's shared link (500 kbit/s per session) fits 4 layers each when all
   three sessions cross it, and 5 when only one does. *)
let test_oracle_sessions_crossing () =
  let spec = Scenarios.Builders.topology_b ~session_count:3 in
  let routing = Net.Routing.compute spec.topology in
  let optimum sessions =
    let source, receivers = List.hd sessions in
    Oracle.optimal_level ~topology:spec.topology ~routing
      ~layering:Layering.paper_default ~sessions ~source
      ~receiver:(List.hd receivers)
  in
  checki "shared by three" 4 (optimum spec.sessions);
  checki "crossed by one" 5 (optimum [ List.hd spec.sessions ]);
  (* A crossing counts in either direction, and a private link belongs
     to its one session. Session 2 -> 3 runs left (0) to right (1) and
     session 4 -> 5 right to left over a 1.5 Mbit/s link: 750 kbit/s each
     fits 4 layers, where the whole link would fit 5. Session 2's own
     300 kbit/s access link fits 3, where half of it would fit only 2. *)
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 6);
  let link a b kbps =
    Topology.add_duplex topo ~a ~b ~bandwidth_bps:(Topology.kbps kbps) ()
  in
  link 0 1 1500.0;
  link 2 0 300.0;
  link 1 3 10_000.0;
  link 4 1 10_000.0;
  link 0 5 10_000.0;
  let routing = Net.Routing.compute topo in
  let optimum' source receiver =
    Oracle.optimal_level ~topology:topo ~routing
      ~layering:Layering.paper_default
      ~sessions:[ (2, [ 3 ]); (4, [ 5 ]) ]
      ~source ~receiver
  in
  checki "shared with a reverse crossing" 4 (optimum' 4 5);
  checki "private access link" 3 (optimum' 2 3)

let test_oracle_source_is_max () =
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  let routing = Net.Routing.compute spec.topology in
  let layering = Layering.paper_default in
  let source, _ = List.hd spec.sessions in
  checki "source gets everything" 6
    (Oracle.optimal_level ~topology:spec.topology ~routing ~layering
       ~sessions:spec.sessions ~source ~receiver:source)

(* ---------- RLM baseline ---------- *)

(* Chain: source 0 - router 1 - receiver 2 with a 250 Kbps bottleneck:
   optimum is 3 layers (224 Kbps). *)
let rlm_world () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 3);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e7 ~queue_limit:10 ();
  Topology.add_duplex topo ~a:1 ~b:2 ~bandwidth_bps:(Topology.kbps 250.0)
    ~queue_limit:10 ();
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  let source =
    Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
      ~rng:(Sim.rng sim ~label:"src") ()
  in
  ignore source;
  (sim, nw, router, session)

let test_rlm_converges_to_bottleneck () =
  let sim, nw, router, session = rlm_world () in
  let rlm = Rlm.create ~network:nw ~router ~node:2 ~session () in
  Rlm.start rlm;
  Sim.run_until sim (Time.of_sec 300);
  (* Should hover at the 3-layer optimum (allow the probe excursion). *)
  let final = Rlm.level rlm in
  checkb (Printf.sprintf "final %d in [2,4]" final) true (final >= 2 && final <= 4);
  checkb "did some experiments" true
    (Rlm.successful_experiments rlm + Rlm.failed_experiments rlm > 0)

let test_rlm_failed_experiments_backoff () =
  let sim, nw, router, session = rlm_world () in
  let rlm = Rlm.create ~network:nw ~router ~node:2 ~session () in
  Rlm.start rlm;
  Sim.run_until sim (Time.of_sec 600);
  (* Join experiments at layer 4 keep failing; their timer must have
     backed off, so failures are bounded. *)
  let fails = Rlm.failed_experiments rlm in
  checkb (Printf.sprintf "failures bounded (%d)" fails) true
    (fails >= 1 && fails <= 25)

let test_rlm_changes_recorded () =
  let sim, nw, router, session = rlm_world () in
  let rlm = Rlm.create ~network:nw ~router ~node:2 ~session () in
  Rlm.start rlm;
  Sim.run_until sim (Time.of_sec 120);
  let changes = Rlm.changes rlm in
  checkb "has initial subscribe" true
    (match changes with (t, 1) :: _ -> Time.to_ns t = 0 | _ -> false);
  (* Levels always within bounds and adjacent changes differ. *)
  checkb "levels in range" true
    (List.for_all (fun (_, l) -> l >= 0 && l <= 6) changes)

let test_rlm_no_loss_stays_up () =
  (* Unconstrained path: RLM should reach the top layer and stay. *)
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 2);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e8 ();
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let rlm = Rlm.create ~network:nw ~router ~node:1 ~session () in
  Rlm.start rlm;
  Sim.run_until sim (Time.of_sec 300);
  checki "top layer" 6 (Rlm.level rlm);
  checki "no failures" 0 (Rlm.failed_experiments rlm)

let () =
  Alcotest.run "baseline"
    [
      ( "oracle",
        [
          Alcotest.test_case "topology A" `Quick test_oracle_topology_a;
          Alcotest.test_case "topology B" `Quick test_oracle_topology_b_shares;
          Alcotest.test_case "figure 1" `Quick test_oracle_figure1;
          Alcotest.test_case "sessions crossing" `Quick
            test_oracle_sessions_crossing;
          Alcotest.test_case "source" `Quick test_oracle_source_is_max;
        ] );
      ( "rlm",
        [
          Alcotest.test_case "converges" `Slow test_rlm_converges_to_bottleneck;
          Alcotest.test_case "failure backoff" `Slow
            test_rlm_failed_experiments_backoff;
          Alcotest.test_case "change log" `Quick test_rlm_changes_recorded;
          Alcotest.test_case "no loss stays up" `Slow test_rlm_no_loss_stays_up;
        ] );
    ]
