module Time = Engine.Time
module Topology = Net.Topology

type config = {
  regions : int;
  locals_per_region : int;
  institutions_per_local : int;
  sessions : int;
  backbone_bps : float;
  regional_bps : float;
  local_bps : float;
  institution_bps_choices : float list;
}

let default_config =
  {
    regions = 3;
    locals_per_region = 2;
    institutions_per_local = 3;
    sessions = 1;
    backbone_bps = Topology.mbps 100.0;
    regional_bps = Topology.mbps 20.0;
    local_bps = Topology.mbps 3.0;
    institution_bps_choices =
      [
        Topology.kbps 64.0;
        Topology.kbps 150.0;
        Topology.kbps 300.0;
        Topology.kbps 600.0;
        Topology.kbps 1200.0;
      ];
  }

let generate ?(config = default_config) ~seed () =
  if config.regions < 1 then invalid_arg "Tiered.generate: regions < 1";
  if config.locals_per_region < 1 || config.institutions_per_local < 1 then
    invalid_arg "Tiered.generate: empty tiers";
  if config.sessions < 1 then invalid_arg "Tiered.generate: sessions < 1";
  if config.institution_bps_choices = [] then
    invalid_arg "Tiered.generate: no institution bandwidths";
  let rng = Engine.Prng.create ~seed in
  let topo = Topology.create () in
  let queue_for bw = max 10 (min 100 (int_of_float (bw *. 0.2 /. 8000.0))) in
  let duplex ~a ~b ~bw =
    Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw
      ~queue_limit:(queue_for bw) ()
  in
  (* Tier 1: the national core, with each media source on its own fast
     stub (its "institution" in the paper's terms). *)
  let core = Topology.add_node topo in
  let sources =
    List.init config.sessions (fun _ ->
        let s = Topology.add_node topo in
        duplex ~a:s ~b:core ~bw:config.backbone_bps;
        s)
  in
  (* Tiers 2-4: regions -> locals -> institutions (the receivers). *)
  let choices = Array.of_list config.institution_bps_choices in
  let domains, receivers =
    List.split
      (List.init config.regions (fun _ ->
           let region = Topology.add_node topo in
           duplex ~a:core ~b:region ~bw:config.regional_bps;
           let members = ref [ region ] in
           let receivers = ref [] in
           for _ = 1 to config.locals_per_region do
             let local = Topology.add_node topo in
             duplex ~a:region ~b:local ~bw:config.local_bps;
             members := local :: !members;
             for _ = 1 to config.institutions_per_local do
               let inst = Topology.add_node topo in
               let bw =
                 choices.(Engine.Prng.int rng ~bound:(Array.length choices))
               in
               duplex ~a:local ~b:inst ~bw;
               members := inst :: !members;
               receivers := inst :: !receivers
             done
           done;
           (List.rev !members, List.rev !receivers)))
  in
  let receivers = List.concat receivers in
  {
    Builders.spec =
      {
        topology = topo;
        controller_node = List.hd sources;
        sessions = List.map (fun source -> (source, receivers)) sources;
      };
    domains = List.mapi (fun id members -> (id, members)) domains;
  }

type control =
  | Global
  | Per_domain
  | Federated

let control_name = function
  | Global -> "global"
  | Per_domain -> "per-domain"
  | Federated -> "federated"

type receiver_outcome = {
  session : int;
  node : Net.Addr.node_id;
  domain : int;
  optimal : int;
  final_level : int;
  deviation : float;
  changes : int;
}

type outcome = {
  receivers : receiver_outcome list;
  mean_deviation : float;
  controllers : int;
  suggestions_sent : int;
  events_dispatched : int;
  summaries_received : int;
  parent_state_entries : int;
}

let run ~(world : Builders.world) ~control ?(traffic = Experiment.Vbr 3.0)
    ?(duration = Time.of_sec 600) ?(seed = 42L) () =
  let spec = world.spec in
  (* Controllers: either one global agent at the first source, or one per
     regional domain, stationed at the regional node. Federated, the
     per-domain controllers also summarize up to a parent at the first
     source, which holds one slot per (session, domain), so its state
     never grows with the receiver population. Every controller manages
     every session (the paper: "the topology of different multicast
     sessions in that domain"), and every receiver runs one agent
     subscribed to every session, reporting to its domain's controller
     (or the global one). *)
  let w =
    World.build ~spec ~domains:world.domains ~seed
      ~traffic:(Experiment.source_kind traffic)
      ~control:
        (match control with
        | Global -> World.Flat { probe = false }
        | Per_domain -> World.Per_domain
        | Federated -> World.Federated { rehome = false })
      ~agents:World.Every_receiver ()
  in
  let sim = w.sim and sessions = w.sessions in
  let controllers = Option.to_list w.flat @ List.map snd w.controllers in
  let layering = Traffic.Layering.paper_default in
  Engine.Sim.run_until sim duration;
  let routing = Net.Network.routing w.network in
  let domain_of node =
    match
      List.find_opt (fun (_, members) -> List.mem node members) world.domains
    with
    | Some (id, _) -> id
    | None -> -1
  in
  let outcomes =
    List.concat_map
      (fun (node, a) ->
        List.map
          (fun session ->
            let id = Traffic.Session.id session in
            let changes = Toposense.Receiver_agent.changes a ~session:id in
            let optimal =
              Baseline.Static_oracle.optimal_level
                ~topology:spec.Builders.topology ~routing ~layering
                ~sessions:spec.Builders.sessions
                ~source:(Traffic.Session.source session)
                ~receiver:node
            in
            {
              session = id;
              node;
              domain = domain_of node;
              optimal;
              final_level = Toposense.Receiver_agent.level a ~session:id;
              deviation =
                Metrics.Deviation.relative_deviation ~changes ~optimal
                  ~window:(Time.zero, duration);
              changes = List.length changes;
            })
          sessions)
      w.agents
  in
  let mean_deviation =
    List.fold_left (fun acc r -> acc +. r.deviation) 0.0 outcomes
    /. float_of_int (max 1 (List.length outcomes))
  in
  {
    receivers = outcomes;
    mean_deviation;
    controllers = List.length controllers;
    suggestions_sent =
      List.fold_left
        (fun acc c -> acc + Toposense.Controller.suggestions_sent c)
        0 controllers;
    events_dispatched = Engine.Sim.events_dispatched sim;
    summaries_received =
      Option.fold ~none:0 ~some:Toposense.Federation.summaries_received
        w.parent;
    parent_state_entries =
      Option.fold ~none:0 ~some:Toposense.Federation.state_entries w.parent;
  }
