(* PR 8: crash faults, federated-controller failover, and the seeded
   chaos harness with global invariant checking. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Builders = Scenarios.Builders
module Chaos = Scenarios.Chaos
module Recovery = Scenarios.Recovery
module World = Scenarios.World
module Controller = Toposense.Controller
module Federation = Toposense.Federation
module Session = Traffic.Session

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- crash faults at the network + multicast layers ---------- *)

(* A small joined world: cross-linked 3-ary tree, a session, members at
   every leaf across two layers. Returns everything a crash test pokes. *)
let joined_world ?(seed = 5L) () =
  let spec = Builders.kary ~fanout:3 ~depth:2 () in
  let sim = Sim.create ~seed () in
  let network = Net.Network.create ~sim spec.Builders.topology in
  Net.Routing.prefetch_all (Net.Network.routing network);
  let router = Multicast.Router.create ~network () in
  let source, receivers =
    match spec.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let session =
    Session.create ~router ~source ~layering:Traffic.Layering.paper_default
      ~id:0
  in
  let g0 = Session.group_for_layer session ~layer:0 in
  let g1 = Session.group_for_layer session ~layer:1 in
  List.iter
    (fun node ->
      Multicast.Router.join router ~node ~group:g0;
      if node mod 2 = 0 then Multicast.Router.join router ~node ~group:g1)
    receivers;
  (sim, network, router, spec, source, receivers, [ g0; g1 ])

let edges router ~group =
  List.sort compare (Multicast.Router.tree_edges router ~group)

let test_crash_recover_bit_identical () =
  let sim, network, router, spec, source, receivers, groups =
    joined_world ()
  in
  Sim.run_until sim (Time.of_sec 5);
  let before_edges = List.map (fun g -> edges router ~group:g) groups in
  let before_members =
    List.map (fun g -> Multicast.Router.members router ~group:g) groups
  in
  let faults = Net.Faults.create ~network () in
  Net.Faults.add_crash_observer faults (fun node ~up ->
      if up then Multicast.Router.recover_node router ~node
      else Multicast.Router.crash_node router ~node);
  (* crash one interior node (first hop below the source: forwarding
     state only) and one member leaf (local membership wiped + re-made) *)
  let interior = 1 in
  let leaf = List.hd (List.filter (fun n -> n mod 2 = 0) receivers) in
  Net.Faults.schedule_crash faults ~at:(Time.of_sec 10) ~node:interior;
  Net.Faults.schedule_crash faults ~at:(Time.of_sec 12) ~node:leaf;
  Net.Faults.schedule_recover faults ~at:(Time.of_sec 30) ~node:interior;
  Net.Faults.schedule_recover faults ~at:(Time.of_sec 32) ~node:leaf;
  Sim.run_until sim (Time.of_sec 60);
  checki "crashes" 2 (Net.Faults.node_crashes faults);
  checki "recoveries" 2 (Net.Faults.node_recoveries faults);
  checkb "claimed links restored" true
    (Net.Faults.crash_link_downs faults = Net.Faults.crash_link_ups faults);
  (* routing: bit-identical to a fresh compute over the healed topology *)
  let routing = Net.Network.routing network in
  let oracle = Net.Routing.compute spec.Builders.topology in
  let nodes = Net.Network.node_count network in
  let routing_ok = ref true in
  for from = 0 to nodes - 1 do
    for dst = 0 to nodes - 1 do
      if
        from <> dst
        && (Net.Routing.next_hop_opt routing ~from ~dst
              <> Net.Routing.next_hop_opt oracle ~from ~dst
           || Net.Routing.distance routing ~from ~dst
              <> Net.Routing.distance oracle ~from ~dst)
      then routing_ok := false
    done
  done;
  checkb "routing == fresh Dijkstra" true !routing_ok;
  (* trees and memberships: bit-identical to the pre-crash state (same
     members, same topology, so the same RPF edges) *)
  List.iteri
    (fun i g ->
      Alcotest.(check (list (pair int int)))
        "tree edges restored" (List.nth before_edges i) (edges router ~group:g);
      Alcotest.(check (list int))
        "members restored" (List.nth before_members i)
        (Multicast.Router.members router ~group:g))
    groups;
  ignore source

let test_crash_wipes_membership_until_recovery () =
  let sim, network, router, _spec, _source, receivers, groups =
    joined_world ()
  in
  Sim.run_until sim (Time.of_sec 5);
  let faults = Net.Faults.create ~network () in
  Net.Faults.add_crash_observer faults (fun node ~up ->
      if up then Multicast.Router.recover_node router ~node
      else Multicast.Router.crash_node router ~node);
  let leaf = List.hd (List.filter (fun n -> n mod 2 = 0) receivers) in
  Net.Faults.crash_node faults ~node:leaf;
  List.iter
    (fun g ->
      checkb "crashed node is no longer a member" false
        (List.mem leaf (Multicast.Router.members router ~group:g)))
    groups;
  checkb "node reported crashed" true
    (Net.Faults.node_is_crashed faults leaf);
  Net.Faults.recover_node faults ~node:leaf;
  Sim.run_until sim (Time.of_sec 30);
  List.iter
    (fun g ->
      checkb "membership rebuilt from the remembered joins" true
        (List.mem leaf (Multicast.Router.members router ~group:g)))
    groups

let line3 () =
  let topo = Net.Topology.create () in
  let a = Net.Topology.add_node topo in
  let b = Net.Topology.add_node topo in
  let c = Net.Topology.add_node topo in
  let bw = Net.Topology.mbps 10.0 in
  Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw ();
  Net.Topology.add_duplex topo ~a:b ~b:c ~bandwidth_bps:bw ();
  let sim = Sim.create ~seed:3L () in
  (sim, Net.Network.create ~sim topo, a, b, c)

let test_crash_voids_pending_flap_timers () =
  (* flap down at 1, up at 10; crash b at 5 while the link is flap-down,
     recover at 12. The stale up-timer at 10 must not resurrect the
     crashed node's link, and recovery restores only links the crash
     itself downed — the flap still owns this one. *)
  let sim, network, a, b, _c = line3 () in
  let faults = Net.Faults.create ~network () in
  Net.Faults.schedule_flap faults ~a ~b ~down_at:(Time.of_sec 1)
    ~up_at:(Time.of_sec 10);
  Net.Faults.schedule_crash faults ~at:(Time.of_sec 5) ~node:b;
  Net.Faults.schedule_recover faults ~at:(Time.of_sec 12) ~node:b;
  Sim.run_until sim (Time.of_sec 11);
  checkb "stale flap-up voided while crashed" false
    (Net.Network.link_is_up network ~a ~b);
  Sim.run_until sim (Time.of_sec 13);
  checkb "recovery does not steal the flap's link" false
    (Net.Network.link_is_up network ~a ~b);
  (* the link was flap-down at crash time, so the crash never claimed it *)
  checki "crash downed only the healthy link" 1
    (Net.Faults.crash_link_downs faults);
  checki "crash restored only what it downed" 1
    (Net.Faults.crash_link_ups faults);
  Net.Faults.link_up faults ~a ~b;
  checkb "explicit link_up still works" true
    (Net.Network.link_is_up network ~a ~b)

let test_flap_timers_void_both_directions () =
  (* down-timer scheduled before the crash, firing during it: the epoch
     guard voids it too, so the counters see no phantom flap. *)
  let sim, network, a, b, _c = line3 () in
  let faults = Net.Faults.create ~network () in
  Net.Faults.schedule_flap faults ~a ~b ~down_at:(Time.of_sec 6)
    ~up_at:(Time.of_sec 8);
  Net.Faults.schedule_crash faults ~at:(Time.of_sec 5) ~node:b;
  Net.Faults.schedule_recover faults ~at:(Time.of_sec 20) ~node:b;
  Sim.run_until sim (Time.of_sec 30);
  checki "no flap down fired" 0 (Net.Faults.link_downs faults);
  checki "no flap up fired" 0 (Net.Faults.link_ups faults);
  checkb "recovery restored the crashed links" true
    (Net.Network.link_is_up network ~a ~b)

let test_crash_skips_independently_failed_links () =
  let sim, network, a, b, c = line3 () in
  let faults = Net.Faults.create ~network () in
  Net.Faults.link_down faults ~a ~b;
  Net.Faults.crash_node faults ~node:b;
  checki "only the healthy link claimed" 1
    (Net.Faults.crash_link_downs faults);
  Net.Faults.recover_node faults ~node:b;
  checkb "independently failed link stays down" false
    (Net.Network.link_is_up network ~a ~b);
  checkb "claimed link restored" true (Net.Network.link_is_up network ~a:b ~b:c);
  ignore sim

let test_router_crash_experiment () =
  let o = Recovery.router_crash () in
  (* the crash partitions the fast set and outlives their leases *)
  checki "fast receivers evicted" 2 o.Recovery.evictions;
  checki "and readmitted after recovery" 2 o.Recovery.readmissions;
  checki "all four links downed" 4 o.Recovery.crash_link_downs;
  checki "and restored" 4 o.Recovery.crash_link_ups;
  checkb "every receiver recovered" true
    (List.for_all
       (fun (r : Recovery.flap_receiver) -> r.Recovery.recovery_s <> None)
       o.Recovery.receivers);
  checkb "tree consistent at the end" true o.Recovery.tree_consistent;
  checkb "the outage bled packets somewhere" true
    (o.Recovery.crash_drops > 0 || o.Recovery.per_link_fault_drops <> []);
  checkb "fast set had zero goodput while partitioned" true
    (List.for_all
       (fun (r : Recovery.flap_receiver) ->
         (not r.Recovery.fast_branch) || r.Recovery.goodput_during_bps = 0.0)
       o.Recovery.receivers)

(* ---------- the world's crash observer ---------- *)

(* A crash stops what the world built at the node and recovery restarts
   it. A receiver's agent sends no report while its node is down,
   counted where reports originate, before a dead link could drop them;
   a controller runs no interval and sends no prescription. After
   recovery both resume. The controller sits at an interior node, so
   crashing it leaves the source up. *)
let test_world_crash_observer () =
  let spec =
    { (Builders.kary ~fanout:3 ~depth:2 ()) with Builders.controller_node = 1 }
  in
  let w =
    World.build ~spec ~control:(World.Flat { probe = false })
      ~agents:World.Every_receiver ()
  in
  let faults = Lazy.force w.faults in
  let arena = Net.Network.arena w.network in
  let victim, _ = List.hd w.agents in
  let reports = ref 0 in
  Net.Network.set_origination_filter w.network (fun pkt ->
      (if (not (Net.Packet.is_data arena pkt)) && Net.Packet.src arena pkt = victim
       then
         match Net.Packet.payload arena pkt with
         | Reports.Rtcp.Report _ -> incr reports
         | _ -> ());
      `Deliver);
  let run_to s = Sim.run_until w.sim (Time.of_sec s) in
  run_to 10;
  let before = !reports in
  checkb "the agent reports" true (before > 0);
  Net.Faults.crash_node faults ~node:victim;
  run_to 20;
  checki "no report from a crashed node" before !reports;
  Net.Faults.recover_node faults ~node:victim;
  run_to 30;
  checkb "reports resume after recovery" true (!reports > before);
  let ctrl = Option.get w.flat in
  let intervals = Controller.intervals_run ctrl in
  let sent = Controller.suggestions_sent ctrl in
  checkb "the controller prescribes" true (sent > 0);
  Net.Faults.crash_node faults ~node:spec.controller_node;
  checkb "the crash stops the controller" false (Controller.running ctrl);
  run_to 40;
  checki "no interval while crashed" intervals (Controller.intervals_run ctrl);
  checki "no prescription while crashed" sent (Controller.suggestions_sent ctrl);
  Net.Faults.recover_node faults ~node:spec.controller_node;
  checkb "recovery restarts the controller" true (Controller.running ctrl);
  run_to 50;
  checkb "intervals resume" true (Controller.intervals_run ctrl > intervals);
  checkb "prescriptions resume" true (Controller.suggestions_sent ctrl > sent)

(* ---------- federation: restarts, degraded domains, failover ---------- *)

let two_node_net () =
  let sim = Sim.create ~seed:7L () in
  let topo = Net.Topology.create () in
  let a = Net.Topology.add_node topo in
  let b = Net.Topology.add_node topo in
  Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:(Net.Topology.mbps 10.0) ();
  (sim, Net.Network.create ~sim topo, a, b)

let send leaf ~network ~src () =
  Federation.send_summary leaf ~network ~src ~session:0

(* A leaf's seq survives its controller's stop and start: the restarted
   stream's next summary is admitted, and a summary sent before the stop
   that a laggy path delays past it is dropped. *)
let test_pre_restart_straggler_dropped () =
  let sim, network, parent_node, leaf_node = two_node_net () in
  let router = Multicast.Router.create ~network () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let parent = Federation.create_parent ~network ~node:parent_node in
  let ctrl =
    Controller.create ~network ~discovery ~params:Toposense.Params.default
      ~node:leaf_node
      ~federation:(Federation.leaf ~parent:parent_node ~domain_id:0)
      ()
  in
  let session =
    Session.create ~router ~source:leaf_node
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  Session.set_subscription_level session ~router ~node:parent_node ~level:1;
  Controller.add_session ctrl session;
  Controller.start ctrl;
  (* intervals every 2 s: summaries at 2 and 4 s *)
  Sim.run_until sim (Time.of_sec_f 4.5);
  let before = Federation.summaries_received parent in
  checki "two summaries before the stop" 2 before;
  (* the last summary before the stop (6 s) lands only at 16 s *)
  let arena = Net.Network.arena network in
  Net.Network.set_origination_filter network (fun pkt ->
      match Net.Packet.payload arena pkt with
      | Federation.Domain_summary _ -> `Delay (Time.span_of_sec 10)
      | _ -> `Deliver);
  Sim.run_until sim (Time.of_sec_f 6.5);
  Net.Network.clear_origination_filter network;
  Controller.stop ctrl;
  Controller.start ctrl;
  (* the restarted controller's first interval, at 8.5 s *)
  Sim.run_until sim (Time.of_sec 9);
  checki "restarted stream's summary heard" (before + 1)
    (Federation.summaries_received parent);
  checki "and admitted" 0 (Federation.stale_dropped parent);
  Sim.run_until sim (Time.of_sec 17);
  checki "pre-stop straggler dropped" 1 (Federation.stale_dropped parent);
  checki "one slot" 1 (Federation.state_entries parent)

let test_degrade_and_rejoin () =
  let sim, network, parent_node, leaf_node = two_node_net () in
  let parent = Federation.create_parent ~network ~node:parent_node in
  let leaf = Federation.leaf ~parent:parent_node ~domain_id:0 in
  let degraded = ref [] in
  let rejoined = ref [] in
  Federation.start_failover parent ~check_period:(Time.span_of_sec 1)
    ~silence:(Time.span_of_sec 3)
    ~on_degraded:(fun ~domain -> degraded := domain :: !degraded)
    ~on_rejoined:(fun ~domain -> rejoined := domain :: !rejoined)
    ();
  send leaf ~network ~src:leaf_node ();
  Sim.run_until sim (Time.of_sec 8);
  (* silent past the lease: degraded, re-homed to the parent *)
  Alcotest.(check (list int)) "degraded once" [ 0 ] !degraded;
  checki "one failover" 1 (Federation.failovers parent);
  checki "degraded gauge" 1 (Federation.degraded_now parent);
  (* the leaf comes back; its next summary is the rejoin *)
  send leaf ~network ~src:leaf_node ();
  Sim.run_until sim (Time.of_sec 10);
  checki "one rejoin" 1 (Federation.rejoins parent);
  Alcotest.(check (list int)) "rejoin callback" [ 0 ] !rejoined;
  checki "degraded gauge back to zero" 0 (Federation.degraded_now parent)

(* The lease is per domain: one dark domain degrades while its live
   neighbour's summaries keep it healthy, and it rejoins on its own. *)
let test_silent_domain_degrades_alone () =
  let sim, network, parent_node, leaf_node = two_node_net () in
  let parent = Federation.create_parent ~network ~node:parent_node in
  let leaf_a = Federation.leaf ~parent:parent_node ~domain_id:0 in
  let leaf_b = Federation.leaf ~parent:parent_node ~domain_id:1 in
  let degraded = ref [] in
  let rejoined = ref [] in
  Federation.start_failover parent ~check_period:(Time.span_of_sec 1)
    ~silence:(Time.span_of_sec 3)
    ~on_degraded:(fun ~domain -> degraded := domain :: !degraded)
    ~on_rejoined:(fun ~domain -> rejoined := domain :: !rejoined)
    ();
  (* domain 0 reports every second; domain 1 reports once and goes dark *)
  send leaf_b ~network ~src:leaf_node ();
  let keepalive =
    Sim.every sim ~period:(Time.span_of_sec 1) (fun () ->
        send leaf_a ~network ~src:leaf_node ())
  in
  Sim.run_until sim (Time.of_sec 2);
  checki "both domains healthy" 0 (Federation.degraded_now parent);
  checki "two slots" 2 (Federation.state_entries parent);
  Sim.run_until sim (Time.of_sec 8);
  Alcotest.(check (list int)) "only the dark domain degraded" [ 1 ] !degraded;
  checki "one domain degraded" 1 (Federation.degraded_now parent);
  (* the dark domain comes back *)
  send leaf_b ~network ~src:leaf_node ();
  Sim.run_until sim (Time.of_sec 10);
  Alcotest.(check (list int)) "the dark domain rejoined" [ 1 ] !rejoined;
  checki "both domains healthy again" 0 (Federation.degraded_now parent);
  Sim.cancel sim keepalive

(* ---------- leaf-controller crash, end to end ---------- *)

let small_transit =
  Chaos.Transit_stub
    {
      transits = 3;
      stubs_per_transit = 3;
      receivers_per_stub = 20;
      active_domains = 4;
      active_per_domain = 3;
    }

let test_leaf_controller_crash_e2e () =
  (* one leaf-controller outage, long enough to trip the liveness lease:
     degraded -> re-homed to direct parent prescriptions -> leaf restarts
     -> rejoin; zero lost sessions and clean books afterwards *)
  let o =
    Chaos.run ~world:small_transit
      ~schedule:[ Chaos.Ctrl_crash { domain = 0; at_s = 10.0; dur_s = 16.0 } ]
      ~storm_s:45.0 ~seed:21L ()
  in
  checkb "invariants hold" true (Chaos.ok o);
  checki "exactly one failover" 1 o.Chaos.failovers;
  checki "exactly one rejoin" 1 o.Chaos.rejoins;
  checkb "parent prescribed the orphans meanwhile" true
    (o.Chaos.rehomed_prescriptions > 0);
  checki "zero lost sessions" 0 o.Chaos.lost_sessions

(* ---------- fixed seven-fault storm ---------- *)

(* One leaf-controller outage, one parent outage, and two node crashes
   that take down co-located controllers produce exactly 4 failovers on
   this schedule; a monitor that re-degrades healthy domains (e.g. keeps
   running against stopped controllers) blows well past the bound of 6. *)
let test_chaos_storm_failovers_bounded () =
  let o =
    Chaos.run
      ~world:
        (Chaos.Transit_stub
           {
             transits = 3;
             stubs_per_transit = 3;
             receivers_per_stub = 50;
             active_domains = 4;
             active_per_domain = 3;
           })
      ~schedule:
        Chaos.
          [
            Ctrl_crash { domain = 0; at_s = 10.0; dur_s = 12.0 };
            Crash { victim = 3; at_s = 15.0; dur_s = 12.0 };
            Flap { link = 17; at_s = 20.0; dur_s = 6.0 };
            Flap { link = 41; at_s = 28.0; dur_s = 6.0 };
            Lossy_burst { at_s = 34.0; dur_s = 8.0; drop = 0.4 };
            Crash { victim = 29; at_s = 38.0; dur_s = 8.0 };
            Parent_crash { at_s = 44.0; dur_s = 6.0 };
          ]
      ~storm_s:60.0 ~seed:42L ()
  in
  checkb
    ("invariants hold: " ^ String.concat "; " o.Chaos.violations)
    true (Chaos.ok o);
  checkb
    (Printf.sprintf "failovers %d <= 6" o.Chaos.failovers)
    true
    (o.Chaos.failovers <= 6)

(* ---------- the chaos property ---------- *)

let pp_fault = function
  | Chaos.Flap { link; at_s; dur_s } ->
      Printf.sprintf "Flap{link=%d; at=%.0f; dur=%.0f}" link at_s dur_s
  | Chaos.Crash { victim; at_s; dur_s } ->
      Printf.sprintf "Crash{victim=%d; at=%.0f; dur=%.0f}" victim at_s dur_s
  | Chaos.Ctrl_crash { domain; at_s; dur_s } ->
      Printf.sprintf "Ctrl_crash{domain=%d; at=%.0f; dur=%.0f}" domain at_s
        dur_s
  | Chaos.Parent_crash { at_s; dur_s } ->
      Printf.sprintf "Parent_crash{at=%.0f; dur=%.0f}" at_s dur_s
  | Chaos.Lossy_burst { at_s; dur_s; drop } ->
      Printf.sprintf "Lossy_burst{at=%.0f; dur=%.0f; drop=%.1f}" at_s dur_s
        drop

(* Times drawn as whole seconds so failures print exactly and shrink
   well; indices are abstract (the harness resolves them mod the
   world's sets). *)
let gen_fault =
  QCheck.Gen.(
    let at_s = map float_of_int (int_range 5 50) in
    let dur_s = map float_of_int (int_range 2 15) in
    frequency
      [
        ( 4,
          map3
            (fun link at_s dur_s -> Chaos.Flap { link; at_s; dur_s })
            (int_bound 200) at_s dur_s );
        ( 3,
          map3
            (fun victim at_s dur_s -> Chaos.Crash { victim; at_s; dur_s })
            (int_bound 200) at_s dur_s );
        ( 2,
          map3
            (fun domain at_s dur_s -> Chaos.Ctrl_crash { domain; at_s; dur_s })
            (int_bound 20) at_s dur_s );
        ( 1,
          map2
            (fun at_s dur_s ->
              Chaos.Lossy_burst { at_s; dur_s; drop = 0.4 })
            at_s dur_s );
      ])

let arb_schedule =
  QCheck.make
    ~print:(fun s -> "[" ^ String.concat "; " (List.map pp_fault s) ^ "]")
    ~shrink:QCheck.Shrink.(list ~shrink:nil)
    QCheck.Gen.(list_size (int_bound 8) gen_fault)

let outcome_or_fail o =
  if Chaos.ok o then true
  else
    QCheck.Test.fail_reportf "violations:@.%a"
      (Format.pp_print_list Format.pp_print_text)
      o.Chaos.violations

let prop_chaos_kary =
  QCheck.Test.make ~name:"chaos invariants hold on kary (heap)" ~count:6
    arb_schedule
    (fun schedule ->
      outcome_or_fail
        (Chaos.run
           ~world:(Chaos.Kary { fanout = 3; depth = 2 })
           ~schedule ~storm_s:60.0 ~seed:13L ()))

(* The 10k-receiver federated world, one fixed seeded storm: a
   property-sized schedule would take minutes per case at this scale, so
   the population pin is one deterministic run with every fault class. *)
let test_storm_10k () =
  let o =
    Chaos.run
      ~world:
        (Chaos.Transit_stub
           {
             transits = 5;
             stubs_per_transit = 4;
             receivers_per_stub = 500;
             active_domains = 8;
             active_per_domain = 3;
           })
      ~schedule:
        Chaos.
          [
            Ctrl_crash { domain = 2; at_s = 8.0; dur_s = 14.0 };
            Crash { victim = 77; at_s = 12.0; dur_s = 10.0 };
            Flap { link = 123; at_s = 16.0; dur_s = 6.0 };
            Lossy_burst { at_s = 25.0; dur_s = 7.0; drop = 0.4 };
            Parent_crash { at_s = 35.0; dur_s = 5.0 };
          ]
      ~storm_s:50.0 ~seed:42L ()
  in
  checkb "invariants hold at 10k" true (Chaos.ok o);
  checki "receivers" 10_000 o.Chaos.receivers;
  checkb "the storm degraded at least one domain" true (o.Chaos.failovers >= 1);
  checkb "every degraded domain rejoined" true
    (o.Chaos.rejoins = o.Chaos.failovers);
  checki "zero lost sessions" 0 o.Chaos.lost_sessions

(* NaN compares false with every bound, so a range check alone lets it
   through; both entry points name it instead. A finite storm that the
   clock cannot reach the end of is refused before the world is built. *)
let test_nan_rejected () =
  let sim = Sim.create () in
  let spec = Builders.kary ~fanout:2 ~depth:1 () in
  let faults =
    Net.Faults.create ~network:(Net.Network.create ~sim spec.topology) ()
  in
  Alcotest.check_raises "drop fraction"
    (Invalid_argument "Faults.set_control_plane: non-finite fraction")
    (fun () ->
      Net.Faults.set_control_plane faults ~classify:(fun _ -> true)
        ~drop_fraction:Float.nan ());
  Alcotest.check_raises "storm window"
    (Invalid_argument "Chaos.run: storm_s not finite") (fun () ->
      ignore
        (Chaos.run ~world:(Chaos.Kary { fanout = 2; depth = 1 }) ~schedule:[]
           ~storm_s:Float.nan ()));
  Alcotest.check_raises "storm past the clock"
    (Invalid_argument
       "Chaos.run: storm_s + 30 s of quiet is past the clock's range")
    (fun () ->
      ignore
        (Chaos.run ~world:(Chaos.Kary { fanout = 2; depth = 1 }) ~schedule:[]
           ~storm_s:4611686000.0 ()))

(* A transit world with no agent, or with more active domains than it
   has, would pass every invariant without checking a receiver; the
   world refuses such knobs before it runs, naming each. *)
let test_sampled_knobs_rejected () =
  List.iter
    (fun (active_domains, active_per_domain, msg) ->
      let world =
        Chaos.Transit_stub
          {
            transits = 2;
            stubs_per_transit = 2;
            receivers_per_stub = 3;
            active_domains;
            active_per_domain;
          }
      in
      Alcotest.check_raises msg (Invalid_argument ("World.build: " ^ msg))
        (fun () -> ignore (Chaos.run ~world ~schedule:[] ~storm_s:20.0 ())))
    [
      (0, 3, "active_domains 0 must be positive");
      (-1, 3, "active_domains -1 must be positive");
      (2, 0, "active_per_domain 0 must be positive");
      (99, 3, "active_domains 99 exceeds the 4 domains");
    ]

let () =
  Alcotest.run "chaos"
    [
      ( "crash-faults",
        [
          Alcotest.test_case "crash+recover is bit-identical" `Quick
            test_crash_recover_bit_identical;
          Alcotest.test_case "crash wipes membership until recovery" `Quick
            test_crash_wipes_membership_until_recovery;
          Alcotest.test_case "crash voids pending flap timers" `Quick
            test_crash_voids_pending_flap_timers;
          Alcotest.test_case "flap timers void in both directions" `Quick
            test_flap_timers_void_both_directions;
          Alcotest.test_case "recovery skips independently failed links"
            `Quick test_crash_skips_independently_failed_links;
          Alcotest.test_case "router-crash experiment" `Slow
            test_router_crash_experiment;
          Alcotest.test_case "world crash observer stops and restarts"
            `Quick test_world_crash_observer;
        ] );
      ( "federation-failover",
        [
          Alcotest.test_case "pre-restart straggler dropped" `Quick
            test_pre_restart_straggler_dropped;
          Alcotest.test_case "degrade + rejoin" `Quick
            test_degrade_and_rejoin;
          Alcotest.test_case "silent domain degrades alone" `Quick
            test_silent_domain_degrades_alone;
          Alcotest.test_case "leaf-controller crash end to end" `Slow
            test_leaf_controller_crash_e2e;
        ] );
      ( "chaos-storm",
        [
          Alcotest.test_case "seven-fault storm failovers bounded" `Slow
            test_chaos_storm_failovers_bounded;
        ] );
      ("chaos-property", [ QCheck_alcotest.to_alcotest prop_chaos_kary ]);
      ( "input-gate",
        [
          Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
          Alcotest.test_case "sampled knobs rejected" `Quick
            test_sampled_knobs_rejected;
        ] );
      ( "chaos-10k",
        [ Alcotest.test_case "seeded 10k storm (heap)" `Slow test_storm_10k ]
      );
    ]
