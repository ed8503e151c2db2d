module Sim = Engine.Sim
module Time = Engine.Time
module Layering = Traffic.Layering
module Session = Traffic.Session
module Controller = Toposense.Controller
module Agent = Toposense.Receiver_agent
module Federation = Toposense.Federation

(* Faults are written in abstract units — link/victim/domain indices are
   resolved modulo the world's candidate sets, times are clamped into the
   storm window — so a schedule is plain data that a property-based test
   can generate and shrink without knowing the topology. *)
type fault =
  | Flap of { link : int; at_s : float; dur_s : float }
  | Crash of { victim : int; at_s : float; dur_s : float }
  | Ctrl_crash of { domain : int; at_s : float; dur_s : float }
  | Parent_crash of { at_s : float; dur_s : float }
  | Lossy_burst of { at_s : float; dur_s : float; drop : float }

type schedule = fault list

type world =
  | Kary of { fanout : int; depth : int }
  | Transit_stub of {
      transits : int;
      stubs_per_transit : int;
      receivers_per_stub : int;
      active_domains : int;
      active_per_domain : int;
    }

type outcome = {
  nodes : int;
  links : int;
  receivers : int;
  agents : int;
  faults : int;
  flaps : int;
  crashes : int;
  ctrl_crashes : int;
  lossy_bursts : int;
  crash_drops : int;
  evictions : int;
  readmissions : int;
  failovers : int;
  rehomed_prescriptions : int;
  rejoins : int;
  routing_consistent : bool;
  trees_consistent : bool;
  leases_consistent : bool;
  represcribed : bool;
  lost_sessions : int;
  violations : string list;
  routing_recomputes : int;
  repair_passes : int;
  edges_repaired : int;
  events_dispatched : int;
  peak_heap : int;
  peak_live : int;
}

let ok o = o.violations = []

(* Uniform random schedule for the CLI; tests generate their own via
   QCheck so they can shrink. *)
let gen ~rng ~faults ~storm_s =
  if faults < 0 then invalid_arg "Chaos.gen: faults < 0";
  List.init faults (fun _ ->
      let at_s = Engine.Prng.uniform rng ~lo:5.0 ~hi:(storm_s -. 10.0) in
      let dur_s = Engine.Prng.uniform rng ~lo:2.0 ~hi:15.0 in
      match Engine.Prng.int rng ~bound:10 with
      | 0 | 1 | 2 | 3 ->
          Flap { link = Engine.Prng.int rng ~bound:1_000_000; at_s; dur_s }
      | 4 | 5 | 6 ->
          Crash { victim = Engine.Prng.int rng ~bound:1_000_000; at_s; dur_s }
      | 7 | 8 ->
          Ctrl_crash
            { domain = Engine.Prng.int rng ~bound:1_000_000; at_s; dur_s }
      | _ ->
          Lossy_burst
            { at_s; dur_s; drop = Engine.Prng.uniform rng ~lo:0.1 ~hi:0.6 })

(* Seconds from the storm's end to the invariant checks. The
   re-prescription probe fires 3 intervals + 1 s after the storm (7 s at
   the 2 s interval) and must land before the freeze, which comes 10 s
   before the checks so that leave latency expires every kept-alive
   branch. *)
let quiet_s = 30.0

let storm_fits storm_s =
  match Time.of_sec_f (storm_s +. quiet_s) with
  | _ -> true
  | exception Invalid_argument _ -> false

let run ~world ~schedule ?(storm_s = 60.0) ?(seed = 42L) () =
  if not (Float.is_finite storm_s) then
    invalid_arg "Chaos.run: storm_s not finite";
  if storm_s < 20.0 then invalid_arg "Chaos.run: storm_s < 20";
  if not (storm_fits storm_s) then
    invalid_arg "Chaos.run: storm_s + 30 s of quiet is past the clock's range";
  (* ---- build the world ---- *)
  let is_kary = match world with Kary _ -> true | _ -> false in
  let params =
    {
      Toposense.Params.default with
      rlm_fallback = true;
      lease_intervals = 5;
      reliable_prescriptions = is_kary;
      staleness =
        (if is_kary then Toposense.Params.default.staleness
         else Toposense.Params.default.interval);
      prescribe_known_only = not is_kary;
    }
  in
  let interval_s = Time.span_to_sec_f params.Toposense.Params.interval in
  (* kary rigs are paper-sized and checked all-pairs, so they materialize
     the tables; generated transit-stub worlds stay lazy and are checked
     over the destinations the run actually used. *)
  let spec, domains, control, agents =
    match world with
    | Kary { fanout; depth } ->
        ( Builders.kary ~fanout ~depth (),
          [],
          World.Flat { probe = false },
          World.Every_receiver )
    | Transit_stub t ->
        let w =
          Builders.transit_stub ~transits:t.transits
            ~stubs_per_transit:t.stubs_per_transit
            ~receivers_per_stub:t.receivers_per_stub ()
        in
        ( w.Builders.spec,
          w.Builders.domains,
          World.Federated { rehome = true },
          World.Sampled
            {
              active_domains = t.active_domains;
              active_per_domain = t.active_per_domain;
            } )
  in
  let w =
    World.build ~spec ~domains ~seed ~params ~eager_routing:is_kary
      ~discovery_period:params.interval ~discovery_history:4
      ~source_label:(fun _ -> "source") ~control ~agents ()
  in
  let { World.sim; network; router; parent; agents; _ } = w in
  let session = List.hd w.sessions in
  let source, receivers = List.hd spec.Builders.sessions in
  (* the flat controller at the source: the kary world's only one, the
     transit world's re-home target *)
  let rehome = Option.get w.flat in
  let faults = Net.Faults.create ~network () in
  (* what a Ctrl_crash fault and a node crash stop: the per-domain
     controllers, or in the kary world the flat one *)
  let leaf_ctrls =
    match w.controllers with [] -> [ (source, rehome) ] | l -> l
  in
  let all_ctrls = List.rev (rehome :: List.map snd w.controllers) in
  let ctrls_at node =
    List.filter_map (fun (n, c) -> if n = node then Some c else None) leaf_ctrls
  in
  (* a domain's agents, and the node of the controller they report to *)
  let agents_of_domain d =
    match List.find_opt (fun (d', _) -> d' = d) domains with
    | None -> ([], source)
    | Some (_, members) ->
        (List.filter (fun (n, _) -> List.mem n members) agents, List.hd members)
  in
  (* ---- failover monitor (federated worlds only) ---- *)
  (match parent with
  | None -> ()
  | Some parent ->
      Federation.start_failover parent
        ~check_period:params.Toposense.Params.interval
        ~silence:(Time.mul_span params.Toposense.Params.interval 3)
        ~on_degraded:(fun ~domain ->
          List.iter
            (fun (_, a) -> Agent.set_controller a ~controller:source)
            (fst (agents_of_domain domain)))
        ~on_rejoined:(fun ~domain ->
          let agents, home = agents_of_domain domain in
          List.iter
            (fun (node, a) ->
              Agent.set_controller a ~controller:home;
              Controller.forget_receiver rehome ~session:0 ~receiver:node)
            agents)
        ());
  (* ---- crash observers: fail-stop of co-located processes ---- *)
  let agent_at = Hashtbl.create 64 in
  List.iter (fun (n, a) -> Hashtbl.replace agent_at n a) agents;
  Net.Faults.add_crash_observer faults (fun node ~up ->
      if up then begin
        Multicast.Router.recover_node router ~node;
        List.iter Controller.start (ctrls_at node);
        Option.iter Agent.start (Hashtbl.find_opt agent_at node)
      end
      else begin
        Multicast.Router.crash_node router ~node;
        List.iter Controller.stop (ctrls_at node);
        Option.iter Agent.stop (Hashtbl.find_opt agent_at node)
      end);
  (* ---- resolve and arm the schedule ---- *)
  let pairs =
    Array.of_list
      (List.map
         (fun (l : Net.Topology.link_spec) -> (l.a, l.b))
         (Net.Topology.links spec.Builders.topology))
  in
  let crash_cands =
    (* receiver nodes only: the source carries the traffic source, the
       flat/parent controller and the federation handler, and crashing a
       stub router would physically partition its whole domain — the
       Ctrl_crash fault models that controller's death without the
       partition *)
    Array.of_list (List.filter (fun n -> n <> source) receivers)
  in
  let n_flaps = ref 0 and n_crashes = ref 0 in
  let n_ctrl = ref 0 and n_bursts = ref 0 in
  let burst_depth = ref 0 in
  let schedule_at_s s f = ignore (Sim.schedule_at sim (Time.of_sec_f s) f) in
  let clamp_at at_s = Float.max 5.0 (Float.min at_s (storm_s -. 10.0)) in
  let clamp_end at_s dur_s =
    Float.min (at_s +. Float.max 1.0 dur_s) (storm_s -. 2.0)
  in
  let ctrl_of_domain d =
    match leaf_ctrls with
    | [] -> None
    | l ->
        let n = List.length l in
        Some (snd (List.nth l (((d mod n) + n) mod n)))
  in
  List.iter
    (fun fault ->
      match fault with
      | Flap { link; at_s; dur_s } ->
          let n = Array.length pairs in
          let a, b = pairs.(((link mod n) + n) mod n) in
          let down = clamp_at at_s in
          let up = clamp_end down dur_s in
          incr n_flaps;
          Net.Faults.schedule_flap faults ~a ~b ~down_at:(Time.of_sec_f down)
            ~up_at:(Time.of_sec_f up)
      | Crash { victim; at_s; dur_s } ->
          let n = Array.length crash_cands in
          if n > 0 then begin
            let node = crash_cands.(((victim mod n) + n) mod n) in
            let at = clamp_at at_s in
            let rec_at = clamp_end at dur_s in
            incr n_crashes;
            Net.Faults.schedule_crash faults ~at:(Time.of_sec_f at) ~node;
            Net.Faults.schedule_recover faults ~at:(Time.of_sec_f rec_at)
              ~node
          end
      | Ctrl_crash { domain; at_s; dur_s } -> (
          match ctrl_of_domain domain with
          | None -> ()
          | Some c ->
              let at = clamp_at at_s in
              let rec_at = clamp_end at dur_s in
              incr n_ctrl;
              schedule_at_s at (fun () -> Controller.stop c);
              schedule_at_s rec_at (fun () -> Controller.start c))
      | Parent_crash { at_s; dur_s } ->
          let at = clamp_at at_s in
          let rec_at = clamp_end at dur_s in
          incr n_ctrl;
          schedule_at_s at (fun () -> Controller.stop rehome);
          schedule_at_s rec_at (fun () -> Controller.start rehome)
      | Lossy_burst { at_s; dur_s; drop } ->
          let at = clamp_at at_s in
          let end_at = clamp_end at dur_s in
          let drop = Float.max 0.0 (Float.min drop 0.9) in
          incr n_bursts;
          schedule_at_s at (fun () ->
              incr burst_depth;
              Net.Faults.set_control_plane faults
                ~classify:(Recovery.is_control (Net.Network.arena network))
                ~drop_fraction:drop ());
          schedule_at_s end_at (fun () ->
              decr burst_depth;
              if !burst_depth = 0 then Net.Faults.clear_control_plane faults))
    schedule;
  (* ---- restore-all at storm end: recover every crashed node first
     (recovery restores the links a crash claimed), then force every
     link up, restart every stopped process and silence the tamperer —
     the final graph is the pristine topology, so the end-of-run oracle
     is a fresh compute with nothing disabled. *)
  schedule_at_s storm_s (fun () ->
      for node = 0 to Net.Network.node_count network - 1 do
        Net.Faults.recover_node faults ~node
      done;
      Array.iter (fun (a, b) -> Net.Faults.link_up faults ~a ~b) pairs;
      burst_depth := 0;
      Net.Faults.clear_control_plane faults;
      List.iter Controller.start all_ctrls);
  (* ---- freeze before the final snapshot: stop agents (no more RLM
     join experiments churning memberships) and controllers, then give
     leave latency (1 s) time to expire every kept-alive branch, so the
     end state is comparable to a fresh rebuild from the final
     membership. The re-prescription probe has already fired by now. *)
  schedule_at_s
    (storm_s +. quiet_s -. 10.0)
    (fun () ->
      List.iter (fun (_, a) -> Agent.stop a) agents;
      List.iter Controller.stop all_ctrls;
      (* the monitor must die with the controllers, or the frozen
         summary streams read as every domain failing at once *)
      Option.iter Federation.stop_failover parent);
  (* ---- invariant probes ---- *)
  let violations = ref [] in
  let violate fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let storm_end_t = Time.of_sec_f storm_s in
  (* Re-prescription: sampled at storm_end + 3 intervals (+1 s of
     unicast flight time). A fresh suggestion admitted after the storm
     proves the receiver was re-prescribed inside the bound; the most
     recent admission time is enough because the probe runs at the
     deadline itself. *)
  let represcribed = ref true in
  schedule_at_s
    (storm_s +. (3.0 *. interval_s) +. 1.0)
    (fun () ->
      List.iter
        (fun (node, a) ->
          match Agent.last_suggestion_at a ~session:0 with
          | Some t when Time.(t >= storm_end_t) -> ()
          | _ ->
              represcribed := false;
              violate "receiver n%d not re-prescribed within 3 intervals" node)
        agents);
  Sim.run_until sim (Time.of_sec_f (storm_s +. quiet_s));
  (* ---- post-quiescence global checks ---- *)
  let routing = Net.Network.routing network in
  let oracle = Net.Routing.compute spec.Builders.topology in
  let nodes = Net.Network.node_count network in
  let routing_consistent =
    let check_dsts =
      if is_kary then List.init nodes Fun.id
      else
        (* lazy world: the columns this run can have materialized — every
           unicast destination the control plane used *)
        List.sort_uniq compare
          ((source :: List.map fst leaf_ctrls) @ List.map fst agents)
    in
    let bad =
      Recovery.routing_mismatches ~live:routing ~fresh:oracle ~nodes
        ~dsts:check_dsts
    in
    if bad > 0 then
      violate "routing: %d (from,dst) pairs differ from fresh compute" bad;
    bad = 0
  in
  let trees_consistent =
    let all_ok = ref true in
    for layer = 0 to Layering.count (Session.layering session) - 1 do
      match
        Recovery.tree_mismatch ~router ~fresh:oracle ~nodes
          ~group:(Session.group_for_layer session ~layer)
      with
      | None -> ()
      | Some (live, expected) ->
          all_ok := false;
          violate "tree for layer %d: %d live edges vs %d expected" layer live
            expected
    done;
    !all_ok
  in
  let lost_sessions = ref 0 in
  let leases_consistent =
    let all_ok = ref true in
    List.iter
      (fun (node, a) ->
        let level = Agent.level a ~session:0 in
        if level < 1 then begin
          incr lost_sessions;
          violate "receiver n%d lost its session (level %d)" node level
        end;
        let books =
          List.length
            (List.filter
               (fun c -> Controller.receiver_active c ~session:0 ~node)
               all_ctrls)
        in
        if books = 0 then begin
          all_ok := false;
          violate "receiver n%d orphaned from every lease book" node
        end
        else if books > 1 then begin
          all_ok := false;
          violate "receiver n%d double-booked in %d lease books" node books
        end)
      agents;
    !all_ok
  in
  {
    nodes;
    links = Array.length pairs;
    receivers = List.length receivers;
    agents = List.length agents;
    faults = List.length schedule;
    flaps = !n_flaps;
    crashes = !n_crashes;
    ctrl_crashes = !n_ctrl;
    lossy_bursts = !n_bursts;
    crash_drops = Net.Faults.crash_drops faults;
    evictions =
      List.fold_left (fun acc c -> acc + Controller.evictions c) 0 all_ctrls;
    readmissions =
      List.fold_left (fun acc c -> acc + Controller.readmissions c) 0 all_ctrls;
    failovers =
      (match parent with Some p -> Federation.failovers p | None -> 0);
    rehomed_prescriptions =
      (match parent with
      | Some p -> Federation.rehomed_prescriptions p
      | None -> 0);
    rejoins = (match parent with Some p -> Federation.rejoins p | None -> 0);
    routing_consistent;
    trees_consistent;
    leases_consistent;
    represcribed = !represcribed;
    lost_sessions = !lost_sessions;
    violations = List.rev !violations;
    routing_recomputes = Net.Routing.recomputes routing;
    repair_passes = Multicast.Router.repair_passes router;
    edges_repaired = Multicast.Router.edges_repaired router;
    events_dispatched = Sim.events_dispatched sim;
    peak_heap = Sim.max_pending sim;
    peak_live = Sim.max_live_pending sim;
  }

(* Every degraded domain fails over to the parent, so the one count
   fills both the "degraded" and the "failovers" slot. *)
let pp ppf o =
  Format.fprintf ppf
    "@[<v>chaos: %d nodes, %d links, %d receivers (%d agents), %d faults \
     (%d flaps, %d crashes, %d ctrl outages, %d lossy bursts)@,\
     damage: %d crash drops, %d evictions / %d readmissions, %d routing \
     recomputes, %d repair passes / %d edges repaired@,\
     failover: %d degraded, %d failovers, %d rehomed prescriptions, %d \
     rejoins@,\
     invariants: routing %s, trees %s, leases %s, re-prescribed %s, lost \
     sessions %d@,\
     engine: %d events, peak heap %d (live %d)@]"
    o.nodes o.links o.receivers o.agents o.faults o.flaps o.crashes
    o.ctrl_crashes o.lossy_bursts o.crash_drops o.evictions o.readmissions
    o.routing_recomputes o.repair_passes o.edges_repaired o.failovers
    o.failovers o.rehomed_prescriptions o.rejoins
    (if o.routing_consistent then "ok" else "VIOLATED")
    (if o.trees_consistent then "ok" else "VIOLATED")
    (if o.leases_consistent then "ok" else "VIOLATED")
    (if o.represcribed then "ok" else "VIOLATED")
    o.lost_sessions o.events_dispatched o.peak_heap o.peak_live
