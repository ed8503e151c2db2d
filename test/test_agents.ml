(* Unit tests for the simulation agents (controller and receiver), the
   convergence metrics, the churn scenario and link monitoring. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Agent = Toposense.Receiver_agent
module Controller = Toposense.Controller

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* Source 0 - router 1 - receiver 2, fast links; controller at 0. *)
let world () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 3);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  Topology.add_duplex topo ~a:1 ~b:2 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  (sim, nw, router, session)

let params = Toposense.Params.default

let mk_agent ?(node = 2) (sim, nw, router, session) =
  ignore sim;
  let a = Agent.create ~network:nw ~router ~params ~node ~controller:0 () in
  Agent.subscribe a ~session ~initial_level:1;
  Agent.start a;
  a

(* Hand-rolled suggestions need a monotonic seq per test so the agent's
   dup/stale filter admits each one. *)
let suggest_seq = ref 0

(* A suggestion's size on the wire, as the controller sends it. *)
let suggestion_size = 60

let suggest nw ~receiver ~level =
  incr suggest_seq;
  Network.originate nw ~src:0 ~dst:(Addr.Unicast receiver)
    ~size:suggestion_size
    ~payload:(Controller.Suggestion { session = 0; level; seq = !suggest_seq })

(* ---------- receiver agent ---------- *)

let test_agent_obeys_downward_suggestion () =
  let ((sim, nw, _, _) as w) = world () in
  let a = mk_agent w in
  Agent.set_level a ~session:0 ~level:5;
  suggest nw ~receiver:2 ~level:2;
  Sim.run_until sim (Time.of_sec 1);
  checki "dropped straight to 2" 2 (Agent.level a ~session:0)

let test_agent_clamps_upward_suggestion () =
  let ((sim, nw, _, _) as w) = world () in
  let a = mk_agent w in
  suggest nw ~receiver:2 ~level:5;
  Sim.run_until sim (Time.of_sec 1);
  checki "climbed only one layer" 2 (Agent.level a ~session:0)

let test_agent_ignores_unknown_session () =
  let ((sim, nw, _, _) as w) = world () in
  let a = mk_agent w in
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 2)
    ~size:suggestion_size
    ~payload:(Controller.Suggestion { session = 9; level = 5; seq = 1 });
  Sim.run_until sim (Time.of_sec 1);
  checki "unchanged" 1 (Agent.level a ~session:0);
  checki "not counted" 0 (Agent.suggestions_received a)

let test_agent_set_level_clamps () =
  let ((_, _, _, _) as w) = world () in
  let a = mk_agent w in
  Agent.set_level a ~session:0 ~level:99;
  checki "clamped to 6" 6 (Agent.level a ~session:0);
  Agent.set_level a ~session:0 ~level:(-3);
  checki "clamped to 0" 0 (Agent.level a ~session:0)

let test_agent_change_log () =
  let ((sim, _, _, _) as w) = world () in
  let a = mk_agent w in
  Sim.run_until sim (Time.of_sec 1);
  Agent.set_level a ~session:0 ~level:3;
  Agent.set_level a ~session:0 ~level:3;
  (* no-op not logged *)
  let changes = Agent.changes a ~session:0 in
  checki "two changes (join + raise)" 2 (List.length changes);
  checkb "levels recorded" true (List.map snd changes = [ 1; 3 ])

let test_agent_subscribe_twice_rejected () =
  let ((_, _, _, session) as w) = world () in
  let a = mk_agent w in
  checkb "raises" true
    (try
       Agent.subscribe a ~session ~initial_level:1;
       false
     with Invalid_argument _ -> true)

let test_agent_reports_flow () =
  (* Count report packets arriving at the controller node. *)
  let ((sim, nw, _, _) as w) = world () in
  let reports = ref 0 in
  Network.set_local_handler nw 0 (fun pkt ->
      match Packet.payload (Network.arena nw) pkt with
      | Reports.Rtcp.Report r when r.session = 0 -> incr reports
      | _ -> ());
  let _a = mk_agent w in
  Sim.run_until sim (Time.of_sec 10);
  (* One per report interval (1 s), minus transit. *)
  checkb (Printf.sprintf "roughly 10 reports (%d)" !reports) true
    (!reports >= 8 && !reports <= 11)

let test_agent_settling_flag_after_drop () =
  let ((sim, nw, _, _) as w) = world () in
  let settling_seen = ref false and clear_seen = ref false in
  Network.set_local_handler nw 0 (fun pkt ->
      match Packet.payload (Network.arena nw) pkt with
      | Reports.Rtcp.Report r ->
          if r.settling then settling_seen := true else clear_seen := true
      | _ -> ());
  let a = mk_agent w in
  Sim.run_until sim (Time.of_sec 5);
  Agent.set_level a ~session:0 ~level:3;
  Sim.run_until sim (Time.of_sec 10);
  checkb "no settling before any drop so far" true !clear_seen;
  Agent.set_level a ~session:0 ~level:1;
  Sim.run_until sim (Time.of_sec 12);
  checkb "settling reported after drop" true !settling_seen

let test_agent_stop_silences () =
  let ((sim, nw, _, _) as w) = world () in
  let reports = ref 0 in
  Network.set_local_handler nw 0 (fun pkt ->
      match Packet.payload (Network.arena nw) pkt with
      | Reports.Rtcp.Report _ -> incr reports
      | _ -> ());
  let a = mk_agent w in
  Sim.run_until sim (Time.of_sec 5);
  Agent.stop a;
  let before = !reports in
  Sim.run_until sim (Time.of_sec 15);
  checkb "no reports after stop" true (!reports - before <= 1)

(* ---------- controller ---------- *)

let controller_world () =
  let ((sim, nw, router, session) as w) = world () in
  let discovery = Discovery.Service.create ~sim ~router () in
  Discovery.Service.register_session discovery session;
  let c =
    Controller.create ~network:nw ~discovery ~params ~node:0 ()
  in
  Controller.add_session c session;
  (w, discovery, c)

let test_controller_interval_cadence () =
  let (sim, _, _, _), _, c = controller_world () in
  Controller.start c;
  Sim.run_until sim (Time.of_sec 21);
  (* interval 2 s -> ten runs in 21 s *)
  checki "ten intervals" 10 (Controller.intervals_run c)

let test_controller_stop () =
  let (sim, _, _, _), _, c = controller_world () in
  Controller.start c;
  Sim.run_until sim (Time.of_sec 10);
  Controller.stop c;
  let runs = Controller.intervals_run c in
  Sim.run_until sim (Time.of_sec 30);
  checki "no more runs" runs (Controller.intervals_run c)

let test_controller_suggests_member () =
  let ((sim, nw, _, session) as w), _, c = controller_world () in
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let a = mk_agent w in
  Controller.start c;
  Sim.run_until sim (Time.of_sec 60);
  checkb "receiver heard suggestions" true (Agent.suggestions_received a > 5);
  checkb "reports reached controller" true (Controller.reports_received c > 30);
  (* Fast path everywhere: the receiver should be prescribed upward. *)
  checkb "climbed" true (Agent.level a ~session:0 >= 4)

let test_controller_domain_excludes_outsiders () =
  (* Domain containing only node 1: the session's receiver (node 2) is
     outside, so the restricted tree has no members and the controller
     sends no suggestions. *)
  let ((sim, nw, _, session) as w), _, _ = controller_world () in
  let discovery2 =
    (* fresh service for the domain controller at node 1 *)
    let _, _, router, _ = w in
    Discovery.Service.create ~sim:(Network.sim nw) ~router ()
  in
  ignore session;
  ignore discovery2;
  (* Simpler: a domain controller over {1, 2} should behave like normal. *)
  let _, _, router, session = w in
  let discovery3 = Discovery.Service.create ~sim ~router () in
  Discovery.Service.register_session discovery3 session;
  let c1 =
    Controller.create ~network:nw ~discovery:discovery3 ~params ~node:1
      ~domain:[ 1; 2 ] ()
  in
  Controller.add_session c1 session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let a =
    let x = Agent.create ~network:nw ~router ~params ~node:2 ~controller:1 () in
    Agent.subscribe x ~session ~initial_level:1;
    Agent.start x;
    x
  in
  Controller.start c1;
  Sim.run_until sim (Time.of_sec 60);
  checkb "domain controller manages its receiver" true
    (Agent.suggestions_received a > 5)

let test_controller_no_snapshot_skip () =
  let sim, nw, router, session = world () in
  let discovery = Discovery.Service.create ~sim ~router () in
  Discovery.Service.register_session discovery session;
  let stale_params = { params with Toposense.Params.staleness = Time.span_of_sec 30 } in
  let c =
    Controller.create ~network:nw ~discovery ~params:stale_params ~node:0 ()
  in
  Controller.add_session c session;
  Controller.start c;
  Sim.run_until sim (Time.of_sec 20);
  checkb "all intervals skipped (nothing 30 s old)" true
    (Controller.skipped_no_snapshot c >= 9)

let test_colocated_controller_and_receiver () =
  (* With stacked local handlers, a controller and a receiver agent can
     share one node (e.g. the regional node of a tiered domain). *)
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 3);
  (* source 0 - shared node 1 - receiver 2; both 1 and 2 receive. *)
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  Topology.add_duplex topo ~a:1 ~b:2 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  let discovery = Discovery.Service.create ~sim ~router () in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  (* Controller AND a receiver agent both live on node 1. *)
  let c = Controller.create ~network:nw ~discovery ~params ~node:1 () in
  Controller.add_session c session;
  Controller.start c;
  let a1 = Agent.create ~network:nw ~router ~params ~node:1 ~controller:1 () in
  Agent.subscribe a1 ~session ~initial_level:1;
  Agent.start a1;
  let a2 = Agent.create ~network:nw ~router ~params ~node:2 ~controller:1 () in
  Agent.subscribe a2 ~session ~initial_level:1;
  Agent.start a2;
  Sim.run_until sim (Time.of_sec 60);
  checkb "controller got reports from both" true
    (Controller.reports_received c > 60);
  checkb "co-located receiver climbed" true (Agent.level a1 ~session:0 >= 4);
  checkb "remote receiver climbed" true (Agent.level a2 ~session:0 >= 4)

let test_two_tcp_flows_share_a_host () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  (* one source host 0 - hub 1 - sinks 2, 3 *)
  List.iter
    (fun (a, b) ->
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7
        ~delay:(Time.span_of_ms 10) ())
    [ (0, 1); (1, 2); (1, 3) ];
  let nw = Network.create ~sim topo in
  let f1 = Traffic.Tcp_flow.start ~network:nw ~src:0 ~dst:2 ~flow_id:1 () in
  let f2 = Traffic.Tcp_flow.start ~network:nw ~src:0 ~dst:3 ~flow_id:2 () in
  Sim.run_until sim (Time.of_sec 20);
  checkb "flow 1 progressed" true (Traffic.Tcp_flow.bytes_acked f1 > 500_000);
  checkb "flow 2 progressed" true (Traffic.Tcp_flow.bytes_acked f2 > 500_000)

let test_multi_session_receiver () =
  (* One receiver node subscribed to two sessions from different sources;
     one controller manages both (the paper's multi-session case). *)
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  (* sources 0, 1 - hub 2 - receiver 3; generous link so both fit *)
  List.iter
    (fun (a, b) ->
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7
        ~delay:(Time.span_of_ms 10) ())
    [ (0, 2); (1, 2); (2, 3) ];
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let s0 = Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0 in
  let s1 = Session.create ~router ~source:1 ~layering:Layering.paper_default ~id:1 in
  let discovery = Discovery.Service.create ~sim ~router () in
  Discovery.Service.register_session discovery s0;
  Discovery.Service.register_session discovery s1;
  List.iter
    (fun session ->
      ignore
        (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
           ~rng:(Sim.rng sim ~label:(string_of_int (Session.id session))) ()))
    [ s0; s1 ];
  let c = Controller.create ~network:nw ~discovery ~params ~node:0 () in
  Controller.add_session c s0;
  Controller.add_session c s1;
  Controller.start c;
  let a = Agent.create ~network:nw ~router ~params ~node:3 ~controller:0 () in
  Agent.subscribe a ~session:s0 ~initial_level:1;
  Agent.subscribe a ~session:s1 ~initial_level:1;
  Agent.start a;
  Sim.run_until sim (Time.of_sec 120);
  (* Plenty of capacity: both sessions should be prescribed upward
     independently. *)
  checkb "session 0 climbed" true (Agent.level a ~session:0 >= 4);
  checkb "session 1 climbed" true (Agent.level a ~session:1 >= 4);
  checkb "separate change logs" true
    (List.length (Agent.changes a ~session:0) >= 3
    && List.length (Agent.changes a ~session:1) >= 3)

(* ---------- convergence metrics ---------- *)

let sec = Time.of_sec

let test_time_to_first_reach () =
  let changes = [ (sec 10, 1); (sec 12, 2); (sec 14, 3); (sec 20, 2) ] in
  checkb "reaches 3 at 14" true
    (Metrics.Convergence.time_to_first_reach ~changes ~joined_at:(sec 10)
       ~target:3
    = Some (Time.span_of_sec 4));
  checkb "never reaches 5" true
    (Metrics.Convergence.time_to_first_reach ~changes ~joined_at:(sec 10)
       ~target:5
    = None);
  checkb "changes before join ignored" true
    (Metrics.Convergence.time_to_first_reach ~changes ~joined_at:(sec 13)
       ~target:2
    = Some (Time.span_of_sec 1))

let test_disruption () =
  let changes =
    [ (sec 0, 4); (sec 10, 3); (sec 20, 4); (sec 30, 2); (sec 40, 4) ]
  in
  checki "two dips below 4" 2
    (Metrics.Convergence.disruption ~changes ~window:(sec 0, sec 60)
       ~baseline:4);
  checki "windowed" 1
    (Metrics.Convergence.disruption ~changes ~window:(sec 15, sec 60)
       ~baseline:4)

(* ---------- churn scenario ---------- *)

let test_churn_scenario () =
  let o =
    Scenarios.Churn.run ~receivers_per_set:2 ~join_gap_s:30.0
      ~leave_half_at_s:250.0 ~duration:(Time.of_sec 300) ()
  in
  checki "four receivers" 4 o.total;
  checkb "most reach their optimum" true (o.reached >= 3);
  checkb "mean reach bounded" true
    (match o.mean_reach_s with Some s -> s < 120.0 | None -> false);
  List.iter
    (fun (r : Scenarios.Churn.receiver_report) ->
      match r.left_at_s with
      | Some _ -> checki "departed receivers end at 0" 0 r.final_level
      | None -> checkb "stayers keep layers" true (r.final_level >= 1))
    o.receivers

(* ---------- flow stats ---------- *)

let test_flow_stats_windows () =
  let sim, nw, router, session = world () in
  Session.set_subscription_level session ~router ~node:2 ~level:6;
  Sim.run_until sim (Time.of_sec 1);
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let fs = Net.Flow_stats.create ~network:nw () in
  ignore (Net.Flow_stats.attach fs ~period:(Time.span_of_sec 1));
  Sim.run_until sim (Time.of_sec 31);
  let iface01 = Network.iface_to nw ~node:0 ~neighbor:1 in
  let ws = Net.Flow_stats.windows fs ~node:0 ~iface:iface01 in
  checki "thirty windows" 30 (List.length ws);
  (* 2016 kbit/s on a 10 Mbit/s link ~ 0.2 utilization. *)
  let mean =
    List.fold_left
      (fun acc (w : Net.Flow_stats.window) -> acc +. w.utilization)
      0.0 ws
    /. float_of_int (List.length ws)
  in
  checkb (Printf.sprintf "utilization ~0.2 (%.3f)" mean) true
    (mean > 0.15 && mean < 0.25);
  checki "no drops" 0 (Net.Flow_stats.total_drops fs ~node:0 ~iface:iface01);
  (* The reverse direction is idle. *)
  let iface10 = Network.iface_to nw ~node:1 ~neighbor:0 in
  checkf "reverse idle" 0.0
    (Net.Flow_stats.peak_utilization fs ~node:1 ~iface:iface10)

let test_flow_stats_busiest () =
  let sim, nw, router, session = world () in
  Session.set_subscription_level session ~router ~node:2 ~level:4;
  Sim.run_until sim (Time.of_sec 1);
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"src") ());
  let fs = Net.Flow_stats.create ~network:nw () in
  ignore (Net.Flow_stats.attach fs ~period:(Time.span_of_sec 1));
  Sim.run_until sim (Time.of_sec 11);
  match Net.Flow_stats.busiest_links fs ~top:2 with
  | (n1, _, u1) :: (_, _, u2) :: _ ->
      checkb "data path busiest" true (n1 = 0 || n1 = 1);
      checkb "ordered" true (u1 >= u2)
  | _ -> Alcotest.fail "expected two links"

let () =
  Alcotest.run "agents"
    [
      ( "receiver-agent",
        [
          Alcotest.test_case "obeys drop" `Quick
            test_agent_obeys_downward_suggestion;
          Alcotest.test_case "clamps climb" `Quick
            test_agent_clamps_upward_suggestion;
          Alcotest.test_case "unknown session" `Quick
            test_agent_ignores_unknown_session;
          Alcotest.test_case "set_level clamps" `Quick
            test_agent_set_level_clamps;
          Alcotest.test_case "change log" `Quick test_agent_change_log;
          Alcotest.test_case "subscribe twice" `Quick
            test_agent_subscribe_twice_rejected;
          Alcotest.test_case "reports flow" `Quick test_agent_reports_flow;
          Alcotest.test_case "settling flag" `Quick
            test_agent_settling_flag_after_drop;
          Alcotest.test_case "stop silences" `Quick test_agent_stop_silences;
        ] );
      ( "controller",
        [
          Alcotest.test_case "interval cadence" `Quick
            test_controller_interval_cadence;
          Alcotest.test_case "stop" `Quick test_controller_stop;
          Alcotest.test_case "suggests member" `Slow
            test_controller_suggests_member;
          Alcotest.test_case "domain controller" `Slow
            test_controller_domain_excludes_outsiders;
          Alcotest.test_case "no snapshot skip" `Quick
            test_controller_no_snapshot_skip;
          Alcotest.test_case "multi-session receiver" `Slow
            test_multi_session_receiver;
          Alcotest.test_case "co-located controller+receiver" `Slow
            test_colocated_controller_and_receiver;
          Alcotest.test_case "two tcp flows one host" `Slow
            test_two_tcp_flows_share_a_host;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "first reach" `Quick test_time_to_first_reach;
          Alcotest.test_case "disruption" `Quick test_disruption;
        ] );
      ( "churn",
        [ Alcotest.test_case "scenario" `Slow test_churn_scenario ] );
      ( "flow-stats",
        [
          Alcotest.test_case "windows" `Quick test_flow_stats_windows;
          Alcotest.test_case "busiest" `Quick test_flow_stats_busiest;
        ] );
    ]
