module Sim = Engine.Sim
module Time = Engine.Time
module Layering = Traffic.Layering
module Session = Traffic.Session
module Deviation = Metrics.Deviation

let receivers_per_set = 2

(* Faults strike once the receivers have climbed to their steady
   levels. *)
let fault_at_s = 60.0
let heal_at_s = 90.0
let failover_at_s = 100.0

(* Shared plumbing: a fully wired Topology-A-style world (session,
   source, controller, one receiver agent per receiver node) that the
   fault experiments specialise.  Unlike [Experiment.run] the pieces stay
   accessible so faults can be injected into them mid-run. *)
type rig = {
  world : World.t;
  session : Session.t;
  controller : Toposense.Controller.t;
  spec : Builders.spec;
}

(* The recovery outcomes report damage metrics (routing recomputes,
   affected destinations) defined over the full table set; these rigs are
   paper-sized, so every column is materialized up front to keep the
   numbers comparable across versions. Generated large worlds stay
   lazy. *)
let make_rig ~spec ~params ~seed =
  let world =
    World.build ~spec ~seed ~params ~eager_routing:true
      ~source_label:(fun _ -> "source")
      ~control:(World.Flat { probe = false }) ~agents:World.Every_receiver ()
  in
  {
    world;
    session = List.hd world.sessions;
    controller = Option.get world.flat;
    spec;
  }

(* The oracle's optimum for [node] over the rig's final routes. *)
let optimal rig node =
  Baseline.Static_oracle.optimal_level ~topology:rig.spec.Builders.topology
    ~routing:(Net.Network.routing rig.world.network)
    ~layering:(Session.layering rig.session)
    ~sessions:rig.spec.Builders.sessions
    ~source:(Session.source rig.session) ~receiver:node

let min_level_in ~changes ~window:(lo, hi) =
  List.fold_left
    (fun acc (t, l) -> if Time.(t > lo) && Time.(t <= hi) then min acc l else acc)
    (Deviation.level_at changes lo)
    changes

(* Seconds after [at] until the subscription was back at [pre]: [Some 0.]
   if it was not below [pre] at [at], [None] if it never came back. *)
let back_after ~changes ~pre ~at =
  if Deviation.level_at changes at >= pre then Some 0.0
  else
    List.find_map
      (fun (t, l) ->
        if Time.(t >= at) && l >= pre then
          Some (Time.span_to_sec_f (Time.diff t at))
        else None)
      changes

(* ---------- link flap and router crash ---------- *)

type flap_receiver = {
  node : Net.Addr.node_id;
  fast_branch : bool;
  optimal : int;
  optimal_during : int;
  pre_failure_level : int;
  floor_level : int;
  recovery_s : float option;
  goodput_before_bps : float;
  goodput_during_bps : float;
  final_level : int;
}

(* The failure window shared by the flap and the crash: delivered
   application bytes per receiver from the fault to the heal and in an
   equally long window before it, then the run, then each receiver's
   levels around the fault. [fast_during] is the fast set's optimum while
   the fault lasts. *)
let run_window rig ~fast_set ~fast_during ~duration =
  let down_at = Time.of_sec_f fault_at_s in
  let up_at = Time.of_sec_f heal_at_s in
  let window_s = heal_at_s -. fault_at_s in
  let before_start = Time.of_sec_f (Float.max 0.0 (fault_at_s -. window_s)) in
  let bytes_before = Hashtbl.create 8 in
  let bytes_during = Hashtbl.create 8 in
  let bump tbl node size =
    Hashtbl.replace tbl node
      (size + Option.value ~default:0 (Hashtbl.find_opt tbl node))
  in
  List.iter
    (fun (node, _) ->
      let arena = Net.Network.arena rig.world.network in
      Net.Network.add_local_handler rig.world.network node (fun pkt ->
          if Net.Packet.is_data arena pkt then begin
            let size = Net.Packet.size arena pkt in
            let now = Sim.now rig.world.sim in
            if Time.(now >= before_start) && Time.(now < down_at) then
              bump bytes_before node size
            else if Time.(now >= down_at) && Time.(now < up_at) then
              bump bytes_during node size
          end))
    rig.world.agents;
  Sim.run_until rig.world.sim duration;
  List.map
    (fun (node, agent) ->
      let fast_branch = List.mem node fast_set in
      let changes = Toposense.Receiver_agent.changes agent ~session:0 in
      let optimal = optimal rig node in
      let pre = Deviation.level_at changes down_at in
      let bps tbl =
        match Hashtbl.find_opt tbl node with
        | None -> 0.0
        | Some b -> float_of_int (8 * b) /. window_s
      in
      {
        node;
        fast_branch;
        optimal;
        optimal_during = (if fast_branch then fast_during else optimal);
        pre_failure_level = pre;
        floor_level = min_level_in ~changes ~window:(down_at, up_at);
        recovery_s = back_after ~changes ~pre ~at:up_at;
        goodput_before_bps = bps bytes_before;
        goodput_during_bps = bps bytes_during;
        final_level = Toposense.Receiver_agent.level agent ~session:0;
      })
    rig.world.agents

(* The final overlay is a tree and every edge agrees with the unicast
   reverse path to the source. *)
let tree_follows_rpf rig =
  let routing = Net.Network.routing rig.world.network in
  let snap =
    Discovery.Snapshot.capture ~router:rig.world.router ~session:rig.session
      ~at:(Sim.now rig.world.sim) ()
  in
  Discovery.Snapshot.is_tree snap
  && List.for_all
       (fun (e : Discovery.Snapshot.edge) ->
         Net.Routing.next_hop_opt routing ~from:e.child
           ~dst:(Session.source rig.session)
         = Some e.parent)
       snap.edges

type flap_outcome = {
  receivers : flap_receiver list;
  down_at_s : float;
  up_at_s : float;
  routing_recomputes : int;
  link_fault_drops : int;
  repair_passes : int;
  edges_repaired : int;
  tree_consistent : bool;
}

let detour_bps = Net.Topology.kbps 250.0

(* Topology A plus a 250 Kbps two-hop detour around the core—fast-branch
   link, so failing that link reroutes (through a narrower pipe, ideal
   level 3) instead of partitioning the fast set. *)
let flap_spec () =
  let topo = Net.Topology.create () in
  let add a b bw =
    Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw
      ~discipline:(Builders.default_discipline ~bandwidth_bps:bw)
      ()
  in
  let source = Net.Topology.add_node topo in
  let core = Net.Topology.add_node topo in
  let branch_fast = Net.Topology.add_node topo in
  let branch_slow = Net.Topology.add_node topo in
  let detour = Net.Topology.add_node topo in
  add source core Builders.fast_bps;
  add core branch_fast (Net.Topology.kbps 500.0);
  add core branch_slow (Net.Topology.kbps 100.0);
  add core detour detour_bps;
  add detour branch_fast detour_bps;
  let attach branch =
    List.map
      (fun r ->
        add branch r Builders.fast_bps;
        r)
      (Net.Topology.add_nodes topo receivers_per_set)
  in
  let fast = attach branch_fast in
  let slow = attach branch_slow in
  ( {
      Builders.topology = topo;
      controller_node = source;
      sessions = [ (source, fast @ slow) ];
    },
    core,
    branch_fast,
    fast )

let link_flap ?(duration = Time.of_sec 180) ?(seed = 42L) () =
  if Time.to_sec_f duration <= heal_at_s then
    invalid_arg "link_flap: duration must extend past up_at_s";
  let spec, core, branch_fast, fast_set = flap_spec () in
  let rig = make_rig ~spec ~params:Toposense.Params.default ~seed in
  let faults = Net.Faults.create ~network:rig.world.network () in
  Net.Faults.schedule_flap faults ~a:core ~b:branch_fast
    ~down_at:(Time.of_sec_f fault_at_s) ~up_at:(Time.of_sec_f heal_at_s);
  let receivers =
    run_window rig ~fast_set ~duration
      ~fast_during:
        (Layering.level_for_bandwidth (Session.layering rig.session)
           ~bps:detour_bps)
  in
  let tree_consistent = tree_follows_rpf rig in
  {
    receivers;
    down_at_s = fault_at_s;
    up_at_s = heal_at_s;
    routing_recomputes =
      Net.Routing.recomputes (Net.Network.routing rig.world.network);
    link_fault_drops = Net.Network.fault_drops rig.world.network;
    repair_passes = Multicast.Router.repair_passes rig.world.router;
    edges_repaired = Multicast.Router.edges_repaired rig.world.router;
    tree_consistent;
  }

type crash_outcome = {
  receivers : flap_receiver list;
  crash_at_s : float;
  recover_at_s : float;
  crash_drops : int;
  crash_link_downs : int;
  crash_link_ups : int;
  per_link_fault_drops : ((Net.Addr.node_id * Net.Addr.node_id) * int) list;
  evictions : int;
  readmissions : int;
  routing_recomputes : int;
  repair_passes : int;
  edges_repaired : int;
  tree_consistent : bool;
}

(* Fail-stop crash of the fast-branch router on the flap topology. Unlike
   the flap, this downs ALL of the router's links at once — the fast set
   is partitioned outright (the detour dies with it), its queued packets
   drain into the crash-drop counter, and the receivers ride the
   unilateral fallback at floor level while their leases expire at the
   controller. Recovery restores the links, the wiped forwarding state is
   regrafted from the surviving members' joins, and the next reports
   re-admit the evicted receivers. *)
let router_crash ?(duration = Time.of_sec 200) ?(seed = 42L) () =
  if Time.to_sec_f duration <= heal_at_s then
    invalid_arg "router_crash: duration must extend past recover_at_s";
  let spec, _core, branch_fast, fast_set = flap_spec () in
  let rig = make_rig ~spec ~params:Toposense.Params.default ~seed in
  let faults = Net.Faults.create ~network:rig.world.network () in
  (* the net layer cannot name the multicast layer; the observer wires
     crash/recover through to the router's state wipe and rebuild *)
  Net.Faults.add_crash_observer faults (fun node ~up ->
      if up then Multicast.Router.recover_node rig.world.router ~node
      else Multicast.Router.crash_node rig.world.router ~node);
  Net.Faults.schedule_crash faults ~at:(Time.of_sec_f fault_at_s)
    ~node:branch_fast;
  Net.Faults.schedule_recover faults ~at:(Time.of_sec_f heal_at_s)
    ~node:branch_fast;
  let receivers =
    (* the crash partitions the fast set: no detour survives, so the
       in-failure optimum is 0 (vs the flap's detour level) *)
    run_window rig ~fast_set ~fast_during:0 ~duration
  in
  let tree_consistent = tree_follows_rpf rig in
  {
    receivers;
    crash_at_s = fault_at_s;
    recover_at_s = heal_at_s;
    crash_drops = Net.Faults.crash_drops faults;
    crash_link_downs = Net.Faults.crash_link_downs faults;
    crash_link_ups = Net.Faults.crash_link_ups faults;
    per_link_fault_drops =
      (let acc = ref [] in
       for n = Net.Network.node_count rig.world.network - 1 downto 0 do
         for i = Net.Network.iface_count rig.world.network n - 1 downto 0 do
           let link =
             Net.Network.link_on_iface rig.world.network ~node:n ~iface:i
           in
           let d = Net.Link.fault_drops link in
           if d > 0 then
             acc := ((Net.Link.src link, Net.Link.dst link), d) :: !acc
         done
       done;
       List.sort compare !acc);
    evictions = Toposense.Controller.evictions rig.controller;
    readmissions = Toposense.Controller.readmissions rig.controller;
    routing_recomputes =
      Net.Routing.recomputes (Net.Network.routing rig.world.network);
    repair_passes = Multicast.Router.repair_passes rig.world.router;
    edges_repaired = Multicast.Router.edges_repaired rig.world.router;
    tree_consistent;
  }

(* ---------- controller outage + failover ---------- *)

type outage_receiver = {
  node : Net.Addr.node_id;
  optimal : int;
  level_at_fail : int;
  floor_level : int;
  unilateral_actions : int;
  resync_s : float option;
  final_level : int;
}

type outage_outcome = {
  receivers : outage_receiver list;
  fail_at_s : float;
  failover_at_s : float;
  primary_suggestions : int;
  standby_suggestions : int;
  none_starved : bool;
}

let controller_outage ?(duration = Time.of_sec 200) ?(seed = 42L) () =
  if Time.to_sec_f duration <= failover_at_s then
    invalid_arg "controller_outage: duration must extend past failover_at_s";
  let spec = Builders.topology_a ~receivers_per_set in
  let params = Toposense.Params.default in
  let rig = make_rig ~spec ~params ~seed in
  (* Standby at the core node (node 1 in Topology A): created cold, its
     interval task only starts at failover. *)
  let standby_node = 1 in
  let standby = World.add_controller rig.world ~node:standby_node in
  Toposense.Controller.stop standby;
  let fail_at = Time.of_sec_f fault_at_s in
  let failover_at = Time.of_sec_f failover_at_s in
  ignore
    (Sim.schedule_at rig.world.sim fail_at (fun () ->
         Toposense.Controller.stop rig.controller));
  let counts_at_failover = Hashtbl.create 8 in
  ignore
    (Sim.schedule_at rig.world.sim failover_at (fun () ->
         Toposense.Controller.start standby;
         List.iter
           (fun (node, a) ->
             Hashtbl.replace counts_at_failover node
               (Toposense.Receiver_agent.suggestions_received a);
             Toposense.Receiver_agent.set_controller a ~controller:standby_node)
           rig.world.agents));
  (* Resync probe: the first time each receiver hears a suggestion again
     after failover, at 500 ms resolution. *)
  let resynced_at = Hashtbl.create 8 in
  ignore
    (Sim.every rig.world.sim ~period:(Time.span_of_ms 500) (fun () ->
         let now = Sim.now rig.world.sim in
         if Time.(now >= failover_at) then
           List.iter
             (fun (node, a) ->
               if not (Hashtbl.mem resynced_at node) then
                 match Hashtbl.find_opt counts_at_failover node with
                 | Some c0
                   when Toposense.Receiver_agent.suggestions_received a > c0 ->
                     Hashtbl.replace resynced_at node now
                 | _ -> ())
             rig.world.agents));
  Sim.run_until rig.world.sim duration;
  let end_t = Sim.now rig.world.sim in
  let receivers =
    List.map
      (fun (node, agent) ->
        let changes = Toposense.Receiver_agent.changes agent ~session:0 in
        {
          node;
          optimal = optimal rig node;
          level_at_fail = Deviation.level_at changes fail_at;
          floor_level = min_level_in ~changes ~window:(fail_at, end_t);
          unilateral_actions = Toposense.Receiver_agent.unilateral_actions agent;
          resync_s =
            Option.map
              (fun t -> Time.span_to_sec_f (Time.diff t failover_at))
              (Hashtbl.find_opt resynced_at node);
          final_level = Toposense.Receiver_agent.level agent ~session:0;
        })
      rig.world.agents
  in
  {
    receivers;
    fail_at_s = fault_at_s;
    failover_at_s;
    primary_suggestions = Toposense.Controller.suggestions_sent rig.controller;
    standby_suggestions = Toposense.Controller.suggestions_sent standby;
    none_starved = List.for_all (fun r -> r.floor_level >= 1) receivers;
  }

(* ---------- lossy control plane ---------- *)

type lossy_receiver = {
  node : Net.Addr.node_id;
  optimal : int;
  final_level : int;
  deviation : float;
  suggestions_received : int;
  unilateral_actions : int;
}

type lossy_outcome = {
  receivers : lossy_receiver list;
  drop_fraction : float;
  delay_fraction : float;
  control_dropped : int;
  control_delayed : int;
  reports_received : int;
  suggestions_sent : int;
  mean_deviation : float;
  reliable : bool;
  prescriptions_delivered : int;
  retransmits : int;
  give_ups : int;
  acks_received : int;
  dup_suppressed : int;
  stale_suppressed : int;
}

(* The control plane, as the net layer cannot name it itself: receiver
   reports, controller suggestions, protocol ACKs, discovery
   probe traffic and the federation's domain summaries. *)
let is_control arena (pkt : Net.Packet.t) =
  (not (Net.Packet.is_data arena pkt))
  &&
  match Net.Packet.payload arena pkt with
  | Reports.Rtcp.Report _ -> true
  | Toposense.Controller.Suggestion _ -> true
  | Toposense.Protocol.Ack _ -> true
  | Toposense.Probe_discovery.Probe_query _
  | Toposense.Probe_discovery.Probe_response _ ->
      true
  | Toposense.Federation.Domain_summary _ -> true
  | _ -> false

let lossy_control ?(drop_fraction = 0.3) ?(delay_fraction = 0.0)
    ?(delay = Time.span_of_ms 500) ?(duration = Time.of_sec 300) ?(seed = 42L)
    ?(reliable = false) () =
  let spec = Builders.topology_a ~receivers_per_set in
  let params =
    { Toposense.Params.default with reliable_prescriptions = reliable }
  in
  let rig = make_rig ~spec ~params ~seed in
  let faults = Net.Faults.create ~network:rig.world.network () in
  Net.Faults.set_control_plane faults
    ~classify:(is_control (Net.Network.arena rig.world.network)) ~drop_fraction
    ~delay_fraction ~delay ();
  Sim.run_until rig.world.sim duration;
  let receivers =
    List.map
      (fun (node, agent) ->
        let changes = Toposense.Receiver_agent.changes agent ~session:0 in
        let optimal = optimal rig node in
        {
          node;
          optimal;
          final_level = Toposense.Receiver_agent.level agent ~session:0;
          deviation =
            Deviation.relative_deviation ~changes ~optimal
              ~window:(Time.zero, duration);
          suggestions_received =
            Toposense.Receiver_agent.suggestions_received agent;
          unilateral_actions = Toposense.Receiver_agent.unilateral_actions agent;
        })
      rig.world.agents
  in
  let mean_deviation =
    match receivers with
    | [] -> 0.0
    | rs ->
        List.fold_left (fun acc r -> acc +. r.deviation) 0.0 rs
        /. float_of_int (List.length rs)
  in
  (* A prescription "delivered" is one whose effect was applied: the
     receiver admitted a fresh sequence number (retransmissions of the
     same prescription count once, duplicates are suppressed). *)
  let heard, dups, stales =
    List.fold_left
      (fun (h, d, s) (_, agent) ->
        ( h + Toposense.Receiver_agent.suggestions_received agent,
          d + Toposense.Receiver_agent.dup_suggestions agent,
          s + Toposense.Receiver_agent.stale_suggestions agent ))
      (0, 0, 0) rig.world.agents
  in
  {
    receivers;
    drop_fraction;
    delay_fraction;
    control_dropped = Net.Faults.control_dropped faults;
    control_delayed = Net.Faults.control_delayed faults;
    reports_received = Toposense.Controller.reports_received rig.controller;
    suggestions_sent = Toposense.Controller.suggestions_sent rig.controller;
    mean_deviation;
    reliable;
    prescriptions_delivered = heard - dups - stales;
    retransmits = Toposense.Controller.retransmits rig.controller;
    give_ups = Toposense.Controller.give_ups rig.controller;
    acks_received = Toposense.Controller.acks_received rig.controller;
    dup_suppressed = dups;
    stale_suppressed = stales;
  }

(* ---------- controller partition ---------- *)

type partition_receiver = {
  node : Net.Addr.node_id;
  optimal : int;
  pre_failure_level : int;
  floor_level : int;
  fallback_s : float;
  reconverge_s : float option;
  unilateral_actions : int;
  final_level : int;
}

type partition_outcome = {
  receivers : partition_receiver list;
  down_at_s : float;
  up_at_s : float;
  retransmits : int;
  give_ups : int;
  evictions : int;
  readmissions : int;
  stale_rejected : int;
  lease_suppressed : int;
  unroutable_drops : int;
  none_starved : bool;
  all_reconverged : bool;
}

(* Topology A with the controller moved to a dedicated node hanging off
   the source on its own fast link. Failing that link severs the control
   plane — reports and prescriptions both die unroutable — while the
   data plane (source → branches) keeps flowing untouched, which is
   exactly the regime the receivers' standalone fallback is for. *)
let partition_spec () =
  let spec = Builders.topology_a ~receivers_per_set in
  let source = spec.Builders.controller_node in
  let ctrl = Net.Topology.add_node spec.Builders.topology in
  Net.Topology.add_duplex spec.Builders.topology ~a:source ~b:ctrl
    ~bandwidth_bps:Builders.fast_bps
    ~discipline:(Builders.default_discipline ~bandwidth_bps:Builders.fast_bps)
    ();
  ({ spec with Builders.controller_node = ctrl }, source, ctrl)

let partition ?(duration = Time.of_sec 180) ?(seed = 42L) () =
  if Time.to_sec_f duration <= heal_at_s then
    invalid_arg "partition: duration must extend past up_at_s";
  let spec, source, ctrl = partition_spec () in
  (* Reliable prescriptions + the full RLM fallback, and a lease short
     enough (5 × 2 s) that the controller evicts the unreachable
     receivers well inside the 30 s partition and re-admits them after
     the heal. *)
  let params =
    {
      Toposense.Params.default with
      reliable_prescriptions = true;
      rlm_fallback = true;
      lease_intervals = 5;
    }
  in
  let rig = make_rig ~spec ~params ~seed in
  let faults = Net.Faults.create ~network:rig.world.network () in
  let down_at = Time.of_sec_f fault_at_s in
  let up_at = Time.of_sec_f heal_at_s in
  Net.Faults.schedule_flap faults ~a:source ~b:ctrl ~down_at ~up_at;
  Sim.run_until rig.world.sim duration;
  let end_t = Sim.now rig.world.sim in
  let three_intervals =
    Time.span_to_sec_f (Time.mul_span params.Toposense.Params.interval 3)
  in
  let receivers =
    List.map
      (fun (node, agent) ->
        let changes = Toposense.Receiver_agent.changes agent ~session:0 in
        let pre = Deviation.level_at changes down_at in
        {
          node;
          optimal = optimal rig node;
          pre_failure_level = pre;
          floor_level = min_level_in ~changes ~window:(down_at, end_t);
          fallback_s = Toposense.Receiver_agent.fallback_seconds agent ~session:0;
          reconverge_s = back_after ~changes ~pre ~at:up_at;
          unilateral_actions = Toposense.Receiver_agent.unilateral_actions agent;
          final_level = Toposense.Receiver_agent.level agent ~session:0;
        })
      rig.world.agents
  in
  {
    receivers;
    down_at_s = fault_at_s;
    up_at_s = heal_at_s;
    retransmits = Toposense.Controller.retransmits rig.controller;
    give_ups = Toposense.Controller.give_ups rig.controller;
    evictions = Toposense.Controller.evictions rig.controller;
    readmissions = Toposense.Controller.readmissions rig.controller;
    stale_rejected = Toposense.Controller.stale_rejected rig.controller;
    lease_suppressed = Toposense.Controller.lease_suppressed rig.controller;
    unroutable_drops = Net.Network.unroutable_drops rig.world.network;
    none_starved = List.for_all (fun r -> r.floor_level >= 1) receivers;
    all_reconverged =
      List.for_all
        (fun r ->
          match r.reconverge_s with
          | Some s -> s <= three_intervals
          | None -> false)
        receivers;
  }

(* ---------- global invariants ---------- *)

let routing_mismatches ~live ~fresh ~nodes ~dsts =
  List.fold_left
    (fun bad dst ->
      let bad = ref bad in
      for from = 0 to nodes - 1 do
        if
          from <> dst
          && (Net.Routing.next_hop_opt live ~from ~dst
                <> Net.Routing.next_hop_opt fresh ~from ~dst
             || Net.Routing.distance live ~from ~dst
                <> Net.Routing.distance fresh ~from ~dst)
        then incr bad
      done;
      !bad)
    0 dsts

(* A fresh rebuild of [group]'s tree is the union of its members'
   reverse paths to the source in [fresh]. *)
let tree_mismatch ~router ~fresh ~nodes ~group =
  let source = Multicast.Router.source router ~group in
  let expected = Hashtbl.create 256 in
  let rec climb n steps =
    if n <> source && steps <= nodes then
      match Net.Routing.next_hop_opt fresh ~from:n ~dst:source with
      | None -> ()
      | Some p ->
          if not (Hashtbl.mem expected (p, n)) then begin
            Hashtbl.add expected (p, n) ();
            climb p (steps + 1)
          end
  in
  List.iter (fun m -> climb m 0) (Multicast.Router.members router ~group);
  let expected =
    List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) expected [])
  in
  let live = List.sort compare (Multicast.Router.tree_edges router ~group) in
  if live = expected then None
  else Some (List.length live, List.length expected)

(* ---------- churn storm ---------- *)

type storm_outcome = {
  nodes : int;
  links : int;
  flaps : int;
  topology_events : int;
  joins : int;
  leaves : int;
  routing_recomputes : int;
  full_recompute_equiv : int;
  repair_passes : int;
  edges_repaired : int;
  tables_consistent : bool;
  tree_consistent : bool;
  events_dispatched : int;
  peak_heap : int;
  peak_live : int;
}

(* Pure control-plane stress: no traffic, no TopoSense loop — just the
   routing tables and one multicast tree under sustained link flaps and
   membership churn on a k-ary topology with sibling detours.  Every flap
   finishes before [storm_end]; a restore-all sweep there guarantees the
   final graph is the pristine topology, so the end-of-run oracle is
   simply a fresh [Routing.compute] with nothing disabled.  The last
   30 s are quiet, long enough for every in-flight graft (hop delays)
   and leave timer (1 s) to land before the consistency checks. *)
let churn_storm ?(fanout = 4) ?(depth = 3) ?(flaps = 60) ?(churners = 24)
    ?(duration = Time.of_sec 600) ?(seed = 7L) () =
  if flaps < 0 then invalid_arg "churn_storm: flaps < 0";
  if churners < 0 then invalid_arg "churn_storm: churners < 0";
  let horizon_s = Time.to_sec_f duration in
  if horizon_s < 60.0 then invalid_arg "churn_storm: duration < 60 s";
  let spec = Builders.kary ~fanout ~depth () in
  (* The storm measures incremental table maintenance, which needs the
     tables to exist: with lazy columns, almost nothing would be
     materialized (no unicast traffic runs here) and the recompute
     counters would measure an empty table set. The world carries no
     session: the storm joins one bare group itself. *)
  let { World.sim; network; router; _ } =
    World.build
      ~spec:{ spec with Builders.sessions = [] }
      ~seed ~eager_routing:true ~control:World.No_control
      ~agents:World.No_agents ()
  in
  let faults = Net.Faults.create ~network () in
  let root, leaf_nodes =
    match spec.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let group = Multicast.Router.fresh_group router ~source:root in
  List.iter (fun n -> Multicast.Router.join router ~node:n ~group) leaf_nodes;
  let join_count = ref (List.length leaf_nodes) in
  let leave_count = ref 0 in
  let rng = Sim.rng sim ~label:"churn-storm" in
  let schedule_at_s s f = ignore (Sim.schedule_at sim (Time.of_sec_f s) f) in
  let storm_end = horizon_s -. 30.0 in
  (* Membership churners: a subset of leaves that repeatedly leave and
     re-join a few seconds later.  Every cycle ends in a re-join before
     [storm_end], so the final membership is all leaves again. *)
  List.iteri
    (fun _ node ->
      let t = ref (Engine.Prng.uniform rng ~lo:5.0 ~hi:20.0) in
      let continue = ref true in
      while !continue do
        let gap = Engine.Prng.uniform rng ~lo:2.0 ~hi:6.0 in
        if !t +. gap >= storm_end then continue := false
        else begin
          let off = !t in
          schedule_at_s off (fun () ->
              incr leave_count;
              Multicast.Router.leave router ~node ~group);
          schedule_at_s (off +. gap) (fun () ->
              incr join_count;
              Multicast.Router.join router ~node ~group);
          t := !t +. gap +. Engine.Prng.uniform rng ~lo:10.0 ~hi:25.0
        end
      done)
    (List.filteri (fun i _ -> i < churners) leaf_nodes);
  (* Link flaps over the whole link set (tree links and sibling
     detours); overlapping flaps of one link are fine — [Faults]'s
     down/up are guarded no-ops, and the counters track only effective
     transitions. *)
  let pairs =
    Array.of_list
      (List.map
         (fun (l : Net.Topology.link_spec) -> (l.a, l.b))
         (Net.Topology.links spec.Builders.topology))
  in
  for _ = 1 to flaps do
    let a, b = pairs.(Engine.Prng.int rng ~bound:(Array.length pairs)) in
    let down = Engine.Prng.uniform rng ~lo:5.0 ~hi:(storm_end -. 10.0) in
    let up = down +. Engine.Prng.uniform rng ~lo:2.0 ~hi:8.0 in
    Net.Faults.schedule_flap faults ~a ~b ~down_at:(Time.of_sec_f down)
      ~up_at:(Time.of_sec_f up)
  done;
  schedule_at_s storm_end (fun () ->
      Array.iter (fun (a, b) -> Net.Faults.link_up faults ~a ~b) pairs);
  Sim.run_until sim duration;
  let routing = Net.Network.routing network in
  let nodes = Net.Network.node_count network in
  (* Every link is back up, so the live tables and the tree must equal a
     fresh compute over the pristine topology. *)
  let oracle = Net.Routing.compute spec.Builders.topology in
  let tables_consistent =
    routing_mismatches ~live:routing ~fresh:oracle ~nodes
      ~dsts:(List.init nodes Fun.id)
    = 0
  in
  let tree_consistent =
    tree_mismatch ~router ~fresh:oracle ~nodes ~group = None
  in
  let topology_events = Net.Faults.topology_changes faults in
  {
    nodes;
    links = Array.length pairs;
    flaps;
    topology_events;
    joins = !join_count;
    leaves = !leave_count;
    routing_recomputes = Net.Routing.recomputes routing;
    full_recompute_equiv = topology_events * nodes;
    repair_passes = Multicast.Router.repair_passes router;
    edges_repaired = Multicast.Router.edges_repaired router;
    tables_consistent;
    tree_consistent;
    events_dispatched = Sim.events_dispatched sim;
    peak_heap = Sim.max_pending sim;
    peak_live = Sim.max_live_pending sim;
  }
