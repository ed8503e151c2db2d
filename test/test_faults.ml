(* Fault injection and failure recovery: link failures draining in-flight
   traffic, incremental routing reconvergence, multicast tree repair, the
   controller outage / failover path, and the accounting fixes that rode
   along (self-suggestion suppression, the watchdog deaf gate, session
   registration order). *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Routing = Net.Routing
module Network = Net.Network
module Packet = Net.Packet
module Faults = Net.Faults
module Router = Multicast.Router
module Recovery = Scenarios.Recovery
module World = Scenarios.World

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

type Packet.payload += Probe of int

(* A line topology n0 - n1 - ... - n(k-1). *)
let line ?(bandwidth_bps = 1_000_000.0) ?(delay = Time.span_of_ms 10) k =
  let topo = Topology.create () in
  let nodes = Topology.add_nodes topo k in
  List.iteri
    (fun i a ->
      if i < k - 1 then
        Topology.add_duplex topo ~a ~b:(a + 1) ~bandwidth_bps ~delay ())
    nodes;
  topo

(* A square with a preferred lower path: 0-1-2 at 10 ms hops, 0-3-2 at
   30 ms hops, so routing picks 0-1-2 while both are up. *)
let square () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  let fast = Time.span_of_ms 10 and slow = Time.span_of_ms 30 in
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e6 ~delay:fast ();
  Topology.add_duplex topo ~a:1 ~b:2 ~bandwidth_bps:1e6 ~delay:fast ();
  Topology.add_duplex topo ~a:0 ~b:3 ~bandwidth_bps:1e6 ~delay:slow ();
  Topology.add_duplex topo ~a:3 ~b:2 ~bandwidth_bps:1e6 ~delay:slow ();
  topo

(* ---------- link failure semantics ---------- *)

let test_link_down_drains_in_flight () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 3) in
  let faults = Faults.create ~network:nw () in
  let delivered = ref 0 in
  Network.add_local_handler nw 2 (fun _ -> incr delivered);
  (* 1000 B at 1 Mbps = 8 ms serialization + 10 ms propagation per hop:
     the packet is on the 1-2 link when it dies at 25 ms. *)
  Network.originate nw ~src:0 ~dst:(Net.Addr.Unicast 2) ~size:1000
    ~payload:(Probe 0);
  Faults.schedule_link_down faults ~at:(Time.of_ms 25) ~a:1 ~b:2;
  Sim.run_until sim (Time.of_sec 1);
  checki "in-flight packet lost" 0 !delivered;
  checkb "loss is accounted as a fault drop" true
    (Network.fault_drops nw >= 1);
  (* The drained link stays usable after restoration. *)
  Faults.link_up faults ~a:1 ~b:2;
  Network.originate nw ~src:0 ~dst:(Net.Addr.Unicast 2) ~size:1000
    ~payload:(Probe 1);
  Sim.run_until sim (Time.of_sec 2);
  checki "restored link delivers" 1 !delivered

let test_unroutable_counted_under_partition () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 3) in
  let faults = Faults.create ~network:nw () in
  Faults.link_down faults ~a:0 ~b:1;
  let routing = Network.routing nw in
  checkb "partition visible to routing" false
    (Routing.reachable routing ~from:0 ~dst:2);
  Network.originate nw ~src:0 ~dst:(Net.Addr.Unicast 2) ~size:100
    ~payload:(Probe 0);
  Sim.run_until sim (Time.of_sec 1);
  checki "counted as unroutable" 1 (Network.unroutable_drops nw)

(* ---------- routing reconvergence ---------- *)

let tables_equal topo routing =
  let fresh = Routing.compute topo in
  let n = Topology.node_count topo in
  let ok = ref true in
  for from = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if from <> dst then
        ok :=
          !ok
          && Routing.next_hop_opt routing ~from ~dst
             = Routing.next_hop_opt fresh ~from ~dst
    done
  done;
  !ok

let test_routing_reconverges () =
  let topo = square () in
  let sim = Sim.create () in
  let nw = Network.create ~sim topo in
  let routing = Network.routing nw in
  checki "primary path" 1 (Routing.next_hop routing ~from:0 ~dst:2);
  Network.set_link_up nw ~a:1 ~b:2 false;
  checki "rerouted over the detour" 3 (Routing.next_hop routing ~from:0 ~dst:2);
  checkb "incremental recompute ran" true (Routing.recomputes routing > 0);
  (* Restoring the link must reproduce the canonical from-scratch tables,
     not merely some working ones. *)
  Network.set_link_up nw ~a:1 ~b:2 true;
  checkb "restored tables equal a fresh compute" true (tables_equal topo routing)

(* ---------- multicast tree repair ---------- *)

(* Forwarding edges as a sorted list, for stable comparison. *)
let edges router ~group = List.sort compare (Router.tree_edges router ~group)

let test_tree_repair_no_orphans () =
  let topo = square () in
  let sim = Sim.create () in
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let group = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group;
  Sim.run_until sim (Time.of_sec 1);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "tree on the primary path"
    [ (0, 1); (1, 2) ]
    (edges router ~group);
  Network.set_link_up nw ~a:1 ~b:2 false;
  Sim.run_until sim (Time.of_sec 2);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "re-grafted over the detour, old branch fully pruned"
    [ (0, 3); (3, 2) ]
    (edges router ~group);
  checkb "transit node of the dead branch left the tree" false
    (Router.on_tree router ~node:1 ~group);
  Network.set_link_up nw ~a:1 ~b:2 true;
  Sim.run_until sim (Time.of_sec 3);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "repair follows the link back, no orphaned edges"
    [ (0, 1); (1, 2) ]
    (edges router ~group);
  checkb "member kept its membership throughout" true
    (Router.is_member router ~node:2 ~group)

(* ---------- end-to-end scenarios ---------- *)

let test_link_flap_end_to_end () =
  let o = Recovery.link_flap () in
  checkb "routing recomputed" true (o.routing_recomputes > 0);
  checkb "tree edges were repaired" true (o.edges_repaired > 0);
  checkb "final tree consistent with reverse paths" true o.tree_consistent;
  List.iter
    (fun (r : Recovery.flap_receiver) ->
      checkb
        (Printf.sprintf "n%d recovers within 10 control intervals" r.node)
        true
        (match r.recovery_s with Some s -> s <= 20.0 | None -> false);
      checkb
        (Printf.sprintf "n%d kept receiving during the failure" r.node)
        true
        (r.goodput_during_bps > 0.0);
      if r.fast_branch then begin
        checki
          (Printf.sprintf "n%d back at the optimum" r.node)
          r.optimal r.final_level;
        checkb
          (Printf.sprintf "n%d held a detour-worth of layers" r.node)
          true
          (r.floor_level >= r.optimal_during - 1)
      end)
    o.receivers

let test_controller_outage_end_to_end () =
  let o = Recovery.controller_outage () in
  checkb "no clean receiver starved to level 0" true o.none_starved;
  checkb "standby took over" true (o.standby_suggestions > 0);
  List.iter
    (fun (r : Recovery.outage_receiver) ->
      checkb
        (Printf.sprintf "n%d re-synced after failover" r.node)
        true (r.resync_s <> None);
      checkb
        (Printf.sprintf "n%d watchdog covered the gap" r.node)
        true
        (r.unilateral_actions > 0))
    o.receivers

let test_lossy_control_still_converges () =
  let o = Recovery.lossy_control ~drop_fraction:0.3 () in
  checkb "drops actually happened" true (o.control_dropped > 0);
  List.iter
    (fun (r : Recovery.lossy_receiver) ->
      checkb
        (Printf.sprintf "n%d within one layer of optimal" r.node)
        true
        (abs (r.final_level - r.optimal) <= 1))
    o.receivers

(* ---------- control-plane classifier ---------- *)

(* The federation's summaries ride the control plane too, so a lossy
   burst can starve the parent's liveness lease; other unicast payloads
   and media packets are not control. *)
let test_domain_summary_is_control () =
  let arena = Packet.create_arena () in
  let unicast payload =
    Packet.alloc arena ~src:0 ~dst:(Net.Addr.Unicast 1) ~size:100 ~payload
  in
  let summary =
    unicast
      (Toposense.Federation.Domain_summary
         { domain = 0; session = 0; epoch = 0; seq = 0 })
  in
  checkb "domain summary" true (World.is_control arena summary);
  checkb "other payload" false (World.is_control arena (unicast (Probe 0)));
  let media =
    Packet.alloc_data arena ~src:0 ~group:0 ~size:100 ~session:0 ~layer:0
      ~seq:0
  in
  checkb "media" false (World.is_control arena media)

(* The drop and the delay split one uniform draw per packet, so their
   fractions cannot sum past 1. *)
let test_control_fractions_sum_at_most_one () =
  let sim = Sim.create () in
  let faults = Faults.create ~network:(Network.create ~sim (line 2)) () in
  Alcotest.check_raises "0.7 drop + 0.5 delay"
    (Invalid_argument
       "Faults.set_control_plane: drop_fraction + delay_fraction > 1")
    (fun () ->
      Faults.set_control_plane faults ~classify:(fun _ -> true)
        ~drop_fraction:0.7 ~delay_fraction:0.5 ())

(* A delayed control packet enters the network [delay] late and is
   otherwise routed as usual: it arrives exactly 500 ms after the
   unfiltered one, counted as delayed and not as dropped. *)
let test_control_delay () =
  let arrival ~delay_fraction =
    let sim = Sim.create () in
    let nw = Network.create ~sim (line 3) in
    let faults = Faults.create ~network:nw () in
    Faults.set_control_plane faults ~classify:(fun _ -> true) ~delay_fraction
      ~delay:(Time.span_of_ms 500) ();
    let at = ref None in
    Network.add_local_handler nw 2 (fun _ -> at := Some (Sim.now sim));
    Network.originate nw ~src:0 ~dst:(Net.Addr.Unicast 2) ~size:1000
      ~payload:(Probe 0);
    Sim.run_until sim (Time.of_sec 2);
    (Option.get !at, faults)
  in
  let direct, _ = arrival ~delay_fraction:0.0 in
  let delayed, faults = arrival ~delay_fraction:1.0 in
  checki "arrives 500 ms later" (Time.span_of_ms 500)
    (Time.diff delayed direct);
  checki "counted as delayed" 1 (Faults.control_delayed faults);
  checki "not dropped" 0 (Faults.control_dropped faults)

(* ---------- controller restart ---------- *)

let test_receivers_recover_after_controller_restart () =
  (* Same rig as the outage scenario, but the *primary* restarts instead
     of a standby taking over: stop at 60 s, restart at 100 s. *)
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  let sim = Sim.create ~seed:7L () in
  let nw = Network.create ~sim spec.Scenarios.Builders.topology in
  let router = Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let source, receivers =
    match spec.Scenarios.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let session =
    Traffic.Session.create ~router ~source
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"source") ());
  let params = Toposense.Params.default in
  let c =
    Toposense.Controller.create ~network:nw ~discovery ~params ~node:source ()
  in
  Toposense.Controller.add_session c session;
  Toposense.Controller.start c;
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network:nw ~router ~params ~node
            ~controller:source ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:1;
        Toposense.Receiver_agent.start a;
        (node, a))
      receivers
  in
  let reports_at_stop = ref 0 in
  let reports_at_restart = ref 0 in
  ignore
    (Sim.schedule_at sim (Time.of_sec 60) (fun () ->
         Toposense.Controller.stop c;
         reports_at_stop := Toposense.Controller.reports_received c));
  ignore
    (Sim.schedule_at sim (Time.of_sec 100) (fun () ->
         checkb "stopped controller is deaf" false (Toposense.Controller.running c);
         reports_at_restart := Toposense.Controller.reports_received c;
         Toposense.Controller.start c));
  Sim.run_until sim (Time.of_sec 200);
  checkb "controller running again" true (Toposense.Controller.running c);
  checkb "reports arrived before the outage" true (!reports_at_stop > 0);
  checki "deaf while stopped: nothing heard in the outage" !reports_at_stop
    !reports_at_restart;
  checkb "reports heard again after restart" true
    (Toposense.Controller.reports_received c > !reports_at_restart);
  List.iter
    (fun (node, a) ->
      let changes = Toposense.Receiver_agent.changes a ~session:0 in
      let floor =
        List.fold_left
          (fun acc (t, l) -> if Time.(t > Time.of_sec 60) then min acc l else acc)
          (List.fold_left
             (fun acc (t, l) -> if Time.(t <= Time.of_sec 60) then l else acc)
             0 changes)
          changes
      in
      checkb (Printf.sprintf "n%d never starved across the restart" node) true
        (floor >= 1);
      checkb (Printf.sprintf "n%d hears suggestions again" node) true
        (Toposense.Receiver_agent.suggestions_received a > 0))
    agents

(* ---------- accounting bugfixes ---------- *)

(* suggestions_sent counted prescriptions, including the ones the
   self-suggestion guard then discarded; now the discarded ones land in
   self_suppressed and suggestions_sent means packets on the wire. *)
let test_self_suggestion_accounting () =
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  let sim = Sim.create ~seed:11L () in
  let nw = Network.create ~sim spec.Scenarios.Builders.topology in
  let router = Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let source, receivers =
    match spec.Scenarios.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let session =
    Traffic.Session.create ~router ~source
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"source") ());
  (* Station the controller at a receiver node: prescriptions for that
     node must be suppressed, the others must go out. *)
  let self_node = List.hd receivers in
  let params = Toposense.Params.default in
  let c =
    Toposense.Controller.create ~network:nw ~discovery ~params ~node:self_node
      ()
  in
  Toposense.Controller.add_session c session;
  Toposense.Controller.start c;
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network:nw ~router ~params ~node
            ~controller:self_node ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:1;
        Toposense.Receiver_agent.start a;
        (node, a))
      receivers
  in
  Sim.run_until sim (Time.of_sec 120);
  checkb "self-prescriptions were suppressed" true
    (Toposense.Controller.self_suppressed c > 0);
  let delivered_to_others =
    List.fold_left
      (fun acc (node, a) ->
        if node = self_node then acc
        else acc + Toposense.Receiver_agent.suggestions_received a)
      0 agents
  in
  checkb "wire count covers only real packets" true
    (Toposense.Controller.suggestions_sent c >= delivered_to_others);
  let self_agent = List.assoc self_node agents in
  checki "nothing arrived at the controller's own agent" 0
    (Toposense.Receiver_agent.suggestions_received self_agent)

(* The watchdog's join-experiment branch ran inside the deaf window; now
   both branches wait out deaf_until. With no controller and no loss the
   agent would probe up at the first tick after the timeout — unless a
   fresh drop put it in the deaf period. *)
let test_watchdog_deaf_gate () =
  let sim = Sim.create ~seed:3L () in
  let nw = Network.create ~sim (line 2) in
  let router = Router.create ~network:nw () in
  let session =
    Traffic.Session.create ~router ~source:0
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  let params = Toposense.Params.default in
  let a =
    Toposense.Receiver_agent.create ~network:nw ~router ~params ~node:1
      ~controller:0 ()
  in
  (* Max level: the probe-up branch stays disabled until the drop. *)
  Toposense.Receiver_agent.subscribe a ~session ~initial_level:4;
  Toposense.Receiver_agent.start a;
  (* At 9 s (past the 6 s suggestion timeout) shed a layer: deaf until
     11.5 s. The watchdog ticks at 10 s with zero loss and a long-expired
     probe deadline — exactly the state that used to re-join a layer
     inside the deaf window. *)
  ignore
    (Sim.schedule_at sim (Time.of_sec 9) (fun () ->
         Toposense.Receiver_agent.set_level a ~session:0 ~level:3));
  Sim.run_until sim (Time.of_sec 11);
  checki "no join experiment inside the deaf window" 3
    (Toposense.Receiver_agent.level a ~session:0);
  Sim.run_until sim (Time.of_sec 20);
  checkb "probing resumes once the deaf period has passed" true
    (Toposense.Receiver_agent.level a ~session:0 >= 3)

(* ---------- reliable control plane (PR 3) ---------- *)

(* Controller partition end-to-end: the ISSUE's acceptance scenario. The
   control plane is severed for 30 sim-seconds; leases must evict the
   unreachable receivers, the RLM fallback must keep every receiver at
   or above the base layer, and after the heal everyone must be back at
   the pre-partition level within three TopoSense intervals. *)
let test_partition_end_to_end () =
  let o = Recovery.partition () in
  checkb "no receiver starved during the partition" true o.none_starved;
  checkb "all reconverged within 3 intervals of the heal" true
    o.all_reconverged;
  checkb "evictions happened" true (o.evictions > 0);
  checki "every evicted receiver was readmitted" o.evictions o.readmissions;
  checkb "retransmissions were exercised" true (o.retransmits > 0);
  checkb "prescriptions were withheld from evicted receivers" true
    (o.lease_suppressed > 0);
  checkb "control packets died unroutable during the cut" true
    (o.unroutable_drops > 0);
  List.iter
    (fun (r : Recovery.partition_receiver) ->
      checkb
        (Printf.sprintf "n%d spent time in fallback mode" r.node)
        true (r.fallback_s > 0.0);
      checkb
        (Printf.sprintf "n%d held the base layer" r.node)
        true (r.floor_level >= 1))
    o.receivers

(* The ≥99% recovery criterion, isolated from data-plane congestion: a
   star of fat links where the ONLY control-plane loss is the injected
   20% drop. Every prescription gets its original transmission plus up
   to three backoff retransmissions before the next interval's
   prescription supersedes it, so the miss probability per prescription
   is at most 0.2^3. *)
let test_reliable_recovers_99pct_under_20pct_drop () =
  let sim = Sim.create ~seed:5L () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  List.iter
    (fun r ->
      Topology.add_duplex topo ~a:0 ~b:r ~bandwidth_bps:5e7
        ~delay:(Time.span_of_ms 5) ())
    [ 1; 2; 3 ];
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let session =
    Traffic.Session.create ~router ~source:0
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"source") ());
  let params =
    { Toposense.Params.default with reliable_prescriptions = true }
  in
  let c =
    Toposense.Controller.create ~network:nw ~discovery ~params ~node:0 ()
  in
  Toposense.Controller.add_session c session;
  Toposense.Controller.start c;
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network:nw ~router ~params ~node
            ~controller:0 ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:1;
        Toposense.Receiver_agent.start a;
        a)
      [ 1; 2; 3 ]
  in
  let faults = Faults.create ~network:nw () in
  Faults.set_control_plane faults
    ~classify:(World.is_control (Network.arena nw))
    ~drop_fraction:0.2 ();
  Sim.run_until sim (Time.of_sec 300);
  let sent = Toposense.Controller.suggestions_sent c in
  let delivered, dups, stales =
    List.fold_left
      (fun (d, dup, stale) a ->
        let dup_a = Toposense.Receiver_agent.dup_suggestions a in
        let stale_a = Toposense.Receiver_agent.stale_suggestions a in
        ( d
          + Toposense.Receiver_agent.suggestions_received a
          - dup_a - stale_a,
          dup + dup_a,
          stale + stale_a ))
      (0, 0, 0) agents
  in
  checkb "a real drop rate was applied" true (Faults.control_dropped faults > 0);
  checkb "retransmissions happened" true (Toposense.Controller.retransmits c > 0);
  checkb "acks flowed back" true (Toposense.Controller.acks_received c > 0);
  (* Duplicate deliveries occur (a lost ACK makes the controller resend
     an already-applied prescription) and every one is suppressed: the
     fresh count never exceeds the number of distinct prescriptions. *)
  checkb "duplicate deliveries were suppressed" true (dups > 0);
  checkb "no delivery applied twice" true (delivered <= sent);
  ignore stales;
  checkb
    (Printf.sprintf "recovered >= 99%% of prescriptions (%d/%d)" delivered
       sent)
    true
    (float_of_int delivered >= 0.99 *. float_of_int sent)

(* Lease lifecycle, in isolation: a receiver that stops reporting is
   evicted after [lease_intervals] and prescriptions to it are withheld;
   when it resumes, the next report readmits it at once. *)
let test_lease_eviction_and_readmission () =
  let sim = Sim.create ~seed:9L () in
  let nw = Network.create ~sim (line ~bandwidth_bps:1e7 2) in
  let router = Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let session =
    Traffic.Session.create ~router ~source:0
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"source") ());
  let params = { Toposense.Params.default with lease_intervals = 3 } in
  let c =
    Toposense.Controller.create ~network:nw ~discovery ~params ~node:0 ()
  in
  Toposense.Controller.add_session c session;
  Toposense.Controller.start c;
  let a =
    Toposense.Receiver_agent.create ~network:nw ~router ~params ~node:1
      ~controller:0 ()
  in
  Toposense.Receiver_agent.subscribe a ~session ~initial_level:2;
  Toposense.Receiver_agent.start a;
  Sim.run_until sim (Time.of_sec 20);
  checkb "active while reporting" true
    (Toposense.Controller.receiver_active c ~session:0 ~node:1);
  checki "no eviction while leases refresh" 0 (Toposense.Controller.evictions c);
  (* Fall silent (stop cancels the report task but keeps the layer
     subscriptions, so the stale snapshot still lists the member). *)
  Toposense.Receiver_agent.stop a;
  Sim.run_until sim (Time.of_sec 40);
  checki "exactly one eviction" 1 (Toposense.Controller.evictions c);
  checkb "evicted" false
    (Toposense.Controller.receiver_active c ~session:0 ~node:1);
  checkb "prescriptions withheld while evicted" true
    (Toposense.Controller.lease_suppressed c > 0);
  (* Resume reporting: the next report readmits without ceremony. *)
  Toposense.Receiver_agent.start a;
  Sim.run_until sim (Time.of_sec 50);
  checki "one readmission" 1 (Toposense.Controller.readmissions c);
  checkb "active again" true
    (Toposense.Controller.receiver_active c ~session:0 ~node:1)

(* Each interval runs the sessions in registration order, whatever
   their ids; a federated leaf's per-session summaries leave in it. *)
let test_add_session_order () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 2) in
  let router = Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let c =
    Toposense.Controller.create ~network:nw ~discovery
      ~params:Toposense.Params.default ~node:0
      ~federation:(Toposense.Federation.leaf ~parent:1 ~domain_id:0)
      ()
  in
  let order = [ 3; 0; 4; 1; 2 ] in
  List.iter
    (fun id ->
      let s =
        Traffic.Session.create ~router ~source:0
          ~layering:Traffic.Layering.paper_default ~id
      in
      Discovery.Service.register_session discovery s;
      Traffic.Session.set_subscription_level s ~router ~node:1 ~level:1;
      Toposense.Controller.add_session c s)
    order;
  let heard = ref [] in
  Network.set_local_handler nw 1 (fun pkt ->
      match Packet.payload (Network.arena nw) pkt with
      | Toposense.Federation.Domain_summary { session; _ } ->
          heard := session :: !heard
      | _ -> ());
  Toposense.Controller.start c;
  Sim.run_until sim (Time.of_sec 3);
  check
    (Alcotest.list Alcotest.int)
    "registration order preserved" order (List.rev !heard)

let () =
  Alcotest.run "faults"
    [
      ( "links",
        [
          Alcotest.test_case "down drains in-flight" `Quick
            test_link_down_drains_in_flight;
          Alcotest.test_case "partition counted" `Quick
            test_unroutable_counted_under_partition;
        ] );
      ( "routing",
        [
          Alcotest.test_case "reconverges" `Quick test_routing_reconverges;
        ] );
      ( "tree-repair",
        [
          Alcotest.test_case "no orphans" `Quick test_tree_repair_no_orphans;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "link flap recovers" `Slow
            test_link_flap_end_to_end;
          Alcotest.test_case "controller outage" `Slow
            test_controller_outage_end_to_end;
          Alcotest.test_case "lossy control" `Slow
            test_lossy_control_still_converges;
          Alcotest.test_case "controller restart" `Slow
            test_receivers_recover_after_controller_restart;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "domain summary is control" `Quick
            test_domain_summary_is_control;
          Alcotest.test_case "fractions sum to at most 1" `Quick
            test_control_fractions_sum_at_most_one;
          Alcotest.test_case "delay" `Quick test_control_delay;
        ] );
      ( "reliable-control",
        [
          Alcotest.test_case "partition end-to-end" `Slow
            test_partition_end_to_end;
          Alcotest.test_case "20% drop recovered" `Slow
            test_reliable_recovers_99pct_under_20pct_drop;
          Alcotest.test_case "lease eviction/readmission" `Quick
            test_lease_eviction_and_readmission;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "self suggestions" `Quick
            test_self_suggestion_accounting;
          Alcotest.test_case "watchdog deaf gate" `Quick
            test_watchdog_deaf_gate;
          Alcotest.test_case "add_session order" `Quick test_add_session_order;
        ] );
    ]
