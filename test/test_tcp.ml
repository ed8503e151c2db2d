(* Tests for the TCP-Reno-like flow and its interaction with layered
   multicast (the paper's Section VI TCP-friendliness stance). *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Tcp = Traffic.Tcp_flow

let checkb = Alcotest.check Alcotest.bool

(* src 0 - 1 - dst 2, configurable bottleneck on 1-2. *)
let world ?(bottleneck_kbps = 1000.0) () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 3);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e7
    ~delay:(Time.span_of_ms 10) ();
  Topology.add_duplex topo ~a:1 ~b:2
    ~bandwidth_bps:(Topology.kbps bottleneck_kbps)
    ~delay:(Time.span_of_ms 10) ~queue_limit:25 ();
  let nw = Network.create ~sim topo in
  (sim, nw)

let test_tcp_fills_clean_link () =
  let sim, nw = world () in
  let flow = Tcp.start ~network:nw ~src:0 ~dst:2 () in
  Sim.run_until sim (Time.of_sec 30);
  let goodput = Tcp.throughput_bps flow ~over:(Time.span_of_sec 30) in
  (* 1 Mbps bottleneck; expect at least 70% utilization. *)
  checkb
    (Printf.sprintf "goodput %.0f kbps of 1000" (goodput /. 1000.0))
    true
    (goodput > 700_000.0 && goodput < 1_010_000.0)

let test_tcp_adapts_to_loss () =
  let sim, nw = world ~bottleneck_kbps:300.0 () in
  let flow = Tcp.start ~network:nw ~src:0 ~dst:2 () in
  Sim.run_until sim (Time.of_sec 30);
  checkb "lost and retransmitted" true (Tcp.retransmissions flow > 0);
  (* cwnd bounded by AIMD around the BDP, not runaway. *)
  checkb
    (Printf.sprintf "cwnd sane (%.1f)" (Tcp.cwnd flow))
    true
    (Tcp.cwnd flow < 64.0);
  let goodput = Tcp.throughput_bps flow ~over:(Time.span_of_sec 30) in
  checkb
    (Printf.sprintf "goodput %.0f kbps of 300" (goodput /. 1000.0))
    true
    (goodput > 180_000.0 && goodput < 310_000.0)

let test_tcp_rejects_self_flow () =
  let _, nw = world () in
  checkb "src=dst rejected" true
    (try
       ignore (Tcp.start ~network:nw ~src:0 ~dst:0 ());
       false
     with Invalid_argument _ -> true)

let test_two_flows_share () =
  (* Two flows over one 1 Mbps bottleneck from distinct hosts. *)
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 6);
  (* sources 0,1 - hub 2 - hub 3 - sinks 4,5 *)
  List.iter
    (fun (a, b, bw) ->
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw
        ~delay:(Time.span_of_ms 10) ~queue_limit:25 ())
    [
      (0, 2, 1e7);
      (1, 2, 1e7);
      (2, 3, Topology.kbps 1000.0);
      (3, 4, 1e7);
      (3, 5, 1e7);
    ];
  let nw = Network.create ~sim topo in
  let f1 = Tcp.start ~network:nw ~src:0 ~dst:4 ~flow_id:1 () in
  let f2 = Tcp.start ~network:nw ~src:1 ~dst:5 ~flow_id:2 () in
  Sim.run_until sim (Time.of_sec 60);
  let g1 = Tcp.throughput_bps f1 ~over:(Time.span_of_sec 60) in
  let g2 = Tcp.throughput_bps f2 ~over:(Time.span_of_sec 60) in
  checkb
    (Printf.sprintf "combined near capacity (%.0f+%.0f kbps)" (g1 /. 1000.0)
       (g2 /. 1000.0))
    true
    (g1 +. g2 > 700_000.0 && g1 +. g2 < 1_050_000.0);
  let ratio = Float.max g1 g2 /. Float.min g1 g2 in
  checkb (Printf.sprintf "roughly fair (ratio %.2f)" ratio) true (ratio < 3.0)

let test_tcp_vs_toposense_session () =
  (* The Section VI question: a long-lived TCP flow and a TopoSense
     session share a 1 Mbps link. The multicast session holds the layers
     that fit its estimated share; TCP takes the rest. Nobody starves. *)
  let o = Scenarios.Head_to_head.tcp_vs_toposense () in
  let tcp_goodput = o.shared_bps and mcast_level = o.level in
  (* The paper's own admission plays out: the quasi-inelastic layered
     session holds its layers and AIMD retreats — TCP is squeezed but
     not starved outright (it still clears tens of kbps between the
     session's loss episodes). This asymmetry IS the Section VI
     finding; the assertion pins the shape, not fairness. *)
  checkb
    (Printf.sprintf "tcp squeezed but alive (%.0f kbps)" (tcp_goodput /. 1000.0))
    true
    (tcp_goodput > 20_000.0 && tcp_goodput < 600_000.0);
  checkb
    (Printf.sprintf "mcast keeps layers (level %d)" mcast_level)
    true (mcast_level >= 3);
  (* Combined they use the link meaningfully. *)
  let mcast_bps =
    Traffic.Layering.cumulative_bps Traffic.Layering.paper_default
      ~level:mcast_level
  in
  checkb "no gross over-subscription" true
    (tcp_goodput +. mcast_bps < 1_400_000.0)

let test_tcp_timeout_recovery () =
  (* A link that dies for a while: the flow must survive via RTO and
     resume. Model death by a very small queue + a competing burst is
     complex; instead use a tiny bottleneck where timeouts are likely. *)
  let sim, nw = world ~bottleneck_kbps:64.0 () in
  let flow = Tcp.start ~network:nw ~src:0 ~dst:2 () in
  Sim.run_until sim (Time.of_sec 60);
  checkb "made progress" true (Tcp.bytes_acked flow > 100_000);
  checkb "bounded cwnd" true (Tcp.cwnd flow < 32.0)

let () =
  Alcotest.run "tcp"
    [
      ( "single-flow",
        [
          Alcotest.test_case "fills clean link" `Slow test_tcp_fills_clean_link;
          Alcotest.test_case "adapts to loss" `Slow test_tcp_adapts_to_loss;
          Alcotest.test_case "rejects self" `Quick test_tcp_rejects_self_flow;
          Alcotest.test_case "timeout recovery" `Slow test_tcp_timeout_recovery;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "two flows" `Slow test_two_flows_share;
          Alcotest.test_case "vs toposense" `Slow test_tcp_vs_toposense_session;
        ] );
    ]
