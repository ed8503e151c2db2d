(* Tests for the in-band discovery machinery: network transit observers,
   the packet tracer, and probe-based topology discovery. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Probe = Toposense.Probe_discovery

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

type Packet.payload += Probe_pay of int

(* Line 0 - 1 - 2 - 3. *)
let line () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  for i = 0 to 2 do
    Topology.add_duplex topo ~a:i ~b:(i + 1) ~bandwidth_bps:1e7
      ~delay:(Time.span_of_ms 10) ()
  done;
  let nw = Network.create ~sim topo in
  (sim, nw)

(* ---------- transit observers ---------- *)

let test_observer_sees_every_hop () =
  let sim, nw = line () in
  let seen = ref [] in
  Network.add_transit_observer nw (fun pkt ~at ~in_iface ->
      if Packet.id (Network.arena nw) pkt = 0 then
        seen := (at, in_iface = None) :: !seen);
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 3) ~size:100
    ~payload:(Probe_pay 1);
  Sim.run_until sim (Time.of_sec 1);
  let hops = List.rev !seen in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "all four nodes, origin flagged"
    [ (0, true); (1, false); (2, false); (3, false) ]
    hops

let test_observers_stack () =
  let sim, nw = line () in
  let a = ref 0 and b = ref 0 in
  Network.add_transit_observer nw (fun _ ~at:_ ~in_iface:_ -> incr a);
  Network.add_transit_observer nw (fun _ ~at:_ ~in_iface:_ -> incr b);
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:100
    ~payload:(Probe_pay 1);
  Sim.run_until sim (Time.of_sec 1);
  checki "both observers fired per hop" !a !b;
  checki "two sightings" 2 !a

(* ---------- probe discovery ---------- *)

let probe_world () =
  let sim = Sim.create () in
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
  let nw = Network.create ~sim spec.topology in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  let params = Toposense.Params.default in
  let probe = Probe.create ~network:nw ~node:0 () in
  (* Receivers with agents so they answer probes and send reports. *)
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network:nw ~router ~params ~node
            ~controller:0 ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:2;
        Toposense.Receiver_agent.start a;
        a)
      [ 4; 5; 6; 7 ]
  in
  (* Feed the controller-node packets to the prober by hand (normally the
     Controller does this). *)
  Network.set_local_handler nw 0 (fun pkt -> Probe.handle_packet probe pkt);
  (sim, nw, router, session, probe, agents)

let test_probe_learns_receivers_from_reports () =
  let sim, _, _, _, probe, _ = probe_world () in
  Sim.run_until sim (Time.of_sec 3);
  Alcotest.check (Alcotest.list Alcotest.int) "registered from reports"
    [ 4; 5; 6; 7 ]
    (Probe.known_receivers probe ~session:0)

let test_probe_assembles_tree () =
  let sim, _, _, _, probe, _ = probe_world () in
  Probe.start probe;
  Sim.run_until sim (Time.of_sec 10);
  checkb "queries went out" true (Probe.queries_sent probe > 4);
  checkb "responses came back" true (Probe.responses_received probe > 4);
  match Probe.latest probe ~session:0 with
  | None -> Alcotest.fail "expected an assembled snapshot"
  | Some snap ->
      checkb "valid tree" true (Discovery.Snapshot.is_tree snap);
      checki "rooted at controller" 0 snap.source;
      checki "four members" 4 (List.length snap.members);
      List.iter
        (fun (_, level) ->
          (* No controller in this harness: the agents' unilateral probing
             may have raised them above the initial 2. *)
          checkb "levels carried" true (level >= 2 && level <= 4))
        snap.members;
      (* The assembled edges must mirror the physical tree: 0-1, 1-2,
         1-3, 2-4, 2-5, 3-6, 3-7. *)
      checki "seven edges" 7 (List.length snap.edges)

let test_probe_expires_silent_receivers () =
  let sim, _, _, _, probe, agents = probe_world () in
  Probe.start probe;
  Sim.run_until sim (Time.of_sec 5);
  (* Kill one receiver's reporting; it must age out of the registry. *)
  Toposense.Receiver_agent.stop (List.hd agents);
  Sim.run_until sim (Time.of_sec 30);
  Alcotest.check (Alcotest.list Alcotest.int) "silent receiver forgotten"
    [ 5; 6; 7 ]
    (Probe.known_receivers probe ~session:0);
  match Probe.latest probe ~session:0 with
  | None -> Alcotest.fail "snapshot still expected"
  | Some snap -> checki "three members" 3 (List.length snap.members)

let test_probe_latest_none_initially () =
  let sim, _, _, _, probe, _ = probe_world () in
  Sim.run_until sim (Time.of_ms 100);
  checkb "nothing yet" true (Probe.latest probe ~session:0 = None)

let test_probe_driven_controller_converges () =
  (* Full stack with ?probe: see also bench `discovery` section. *)
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
  let o =
    Scenarios.Experiment.run ~spec ~traffic:Scenarios.Experiment.Cbr
      ~scheme:Scenarios.Experiment.Toposense ~probe_discovery:true
      ~duration:(Time.of_sec 300) ()
  in
  List.iter
    (fun (r : Scenarios.Experiment.receiver_outcome) ->
      checkb
        (Printf.sprintf "n%d final %d ~ optimal %d" r.node r.final_level
           r.optimal)
        true
        (abs (r.final_level - r.optimal) <= 1))
    o.receivers

let () =
  Alcotest.run "discovery2"
    [
      ( "transit-observers",
        [
          Alcotest.test_case "sees every hop" `Quick
            test_observer_sees_every_hop;
          Alcotest.test_case "observers stack" `Quick test_observers_stack;
        ] );
      ( "probe-discovery",
        [
          Alcotest.test_case "registers from reports" `Quick
            test_probe_learns_receivers_from_reports;
          Alcotest.test_case "assembles tree" `Quick test_probe_assembles_tree;
          Alcotest.test_case "expires silent" `Quick
            test_probe_expires_silent_receivers;
          Alcotest.test_case "none initially" `Quick
            test_probe_latest_none_initially;
          Alcotest.test_case "controller converges" `Slow
            test_probe_driven_controller_converges;
        ] );
    ]
