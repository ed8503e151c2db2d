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

type world = {
  spec : Builders.spec;
  domains : (Net.Addr.node_id * Net.Addr.node_id list) list;
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
           ((region, List.rev !members), List.rev !receivers)))
  in
  let receivers = List.concat receivers in
  {
    spec =
      {
        Builders.topology = topo;
        controller_node = List.hd sources;
        sessions = List.map (fun source -> (source, receivers)) sources;
      };
    domains;
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

let run ~world ~control ?(traffic = Experiment.Vbr 3.0)
    ?(duration = Time.of_sec 600) ?(seed = 42L) () =
  let params = Toposense.Params.default in
  let sim = Engine.Sim.create ~seed () in
  let spec = world.spec in
  let network = Net.Network.create ~sim spec.Builders.topology in
  let router = Multicast.Router.create ~network () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let layering = Traffic.Layering.paper_default in
  let sessions =
    List.mapi
      (fun id (source, _) ->
        Traffic.Session.create ~router ~source ~layering ~id)
      spec.Builders.sessions
  in
  List.iter (Discovery.Service.register_session discovery) sessions;
  let kind = Experiment.source_kind traffic in
  List.iter
    (fun session ->
      ignore
        (Traffic.Source.start ~network ~session ~kind
           ~rng:
             (Engine.Sim.rng sim
                ~label:
                  (Printf.sprintf "source-%d" (Traffic.Session.id session)))
           ()))
    sessions;
  (* Controllers: either one global agent at the first source, or one per
     regional domain, stationed at the regional node. Every controller
     manages every session (the paper: "the topology of different
     multicast sessions in that domain"). *)
  let parent =
    match control with
    | Global | Per_domain -> None
    | Federated ->
        (* Two-level hierarchy: the per-domain controllers additionally
           summarize up to a parent stationed at the first source. The
           parent holds one slot per (session, domain) — its state never
           grows with the receiver population. *)
        Some
          (Toposense.Federation.create_parent ~network
             ~node:spec.Builders.controller_node)
  in
  let controllers =
    match control with
    | Global ->
        [
          Toposense.Controller.create ~network ~discovery ~params
            ~node:spec.Builders.controller_node ();
        ]
    | Per_domain ->
        List.map
          (fun (ctrl_node, members) ->
            Toposense.Controller.create ~network ~discovery ~params
              ~node:ctrl_node ~domain:members ())
          world.domains
    | Federated ->
        List.mapi
          (fun domain_id (ctrl_node, members) ->
            Toposense.Controller.create ~network ~discovery ~params
              ~node:ctrl_node ~domain:members
              ~federation:
                (Toposense.Federation.leaf
                   ~parent:spec.Builders.controller_node ~domain_id)
              ())
          world.domains
  in
  List.iter
    (fun c ->
      List.iter (Toposense.Controller.add_session c) sessions;
      Toposense.Controller.start c)
    controllers;
  (* One agent per receiver node, subscribed to every session and
     reporting to its domain controller (or the global one). *)
  let controller_for node =
    match control with
    | Global -> spec.Builders.controller_node
    | Per_domain | Federated -> (
        match
          List.find_opt (fun (_, members) -> List.mem node members)
            world.domains
        with
        | Some (ctrl, _) -> ctrl
        | None -> spec.Builders.controller_node)
  in
  let receivers =
    match spec.Builders.sessions with
    | (_, rs) :: _ -> rs
    | [] -> invalid_arg "Tiered.run: no sessions"
  in
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network ~router ~params ~node
            ~controller:(controller_for node) ()
        in
        List.iter
          (fun session ->
            Toposense.Receiver_agent.subscribe a ~session ~initial_level:1)
          sessions;
        Toposense.Receiver_agent.start a;
        a)
      receivers
  in
  Engine.Sim.run_until sim duration;
  let routing = Net.Network.routing network in
  let domain_of node =
    let rec find i = function
      | [] -> -1
      | (_, members) :: rest ->
          if List.mem node members then i else find (i + 1) rest
    in
    find 0 world.domains
  in
  let outcomes =
    List.concat_map
      (fun a ->
        let node = Toposense.Receiver_agent.node a in
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
      agents
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
      (match parent with
      | None -> 0
      | Some p -> Toposense.Federation.summaries_received p);
    parent_state_entries =
      (match parent with
      | None -> 0
      | Some p -> Toposense.Federation.state_entries p);
  }
