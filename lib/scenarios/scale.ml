module Sim = Engine.Sim
module Time = Engine.Time

type config = {
  transits : int;
  stubs_per_transit : int;
  receivers_per_stub : int;
  active_domains : int;
  active_per_domain : int;
  duration : Time.t;
  seed : int64;
}

let config_10k =
  {
    transits = 5;
    stubs_per_transit = 4;
    receivers_per_stub = 500;
    active_domains = 8;
    active_per_domain = 3;
    duration = Time.of_sec 10;
    seed = 42L;
  }

let config_100k =
  {
    transits = 10;
    stubs_per_transit = 10;
    receivers_per_stub = 1_000;
    active_domains = 8;
    active_per_domain = 3;
    duration = Time.of_sec 5;
    seed = 42L;
  }

let config_1m =
  {
    transits = 10;
    stubs_per_transit = 20;
    receivers_per_stub = 5_000;
    active_domains = 8;
    active_per_domain = 3;
    duration = Time.of_sec 2;
    seed = 42L;
  }

let receivers_of c = c.transits * c.stubs_per_transit * c.receivers_per_stub
let domains_of c = c.transits * c.stubs_per_transit

type outcome = {
  nodes : int;
  links : int;
  receivers : int;
  domains : int;
  shards : int;
  active_agents : int;
  events_dispatched : int;
  events_per_sec : float;
  build_cpu_s : float;
  run_cpu_s : float;
  peak_rss_kb : int;
  materialized_columns : int;
  column_bound : int;
  parent_state_entries : int;
  summaries_received : int;
  suggestions_sent : int;
  reports_received : int;
  controller_state_entries : int;
}

(* VmHWM from /proc/self/status: the process's high-water RSS in kB.
   0 where /proc is absent (non-Linux); the bench gate only runs on
   Linux CI. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" Fun.id
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

type prepared = { p_shards : int; p_exec : unit -> outcome }

let validate config =
  if config.active_domains < 1 || config.active_per_domain < 1 then
    invalid_arg "Scale.run: active knobs must be positive";
  if config.active_domains > domains_of config then
    invalid_arg "Scale.run: active_domains exceeds domain count"

(* The sequential scenario, split at the build/run seam so callers (the
   bench) can time world construction separately from the simulation.
   [--shards 1] takes exactly this path — no shard machinery touches a
   single-region run. *)
let prepare_sequential config =
  let build_t0 = Sys.time () in
  let world =
    Builders.transit_stub ~transits:config.transits
      ~stubs_per_transit:config.stubs_per_transit
      ~receivers_per_stub:config.receivers_per_stub ()
  in
  let spec = world.Builders.spec in
  let sim = Sim.create ~seed:config.seed () in
  let network = Net.Network.create ~sim spec.Builders.topology in
  let router = Multicast.Router.create ~network () in
  let params =
    {
      Toposense.Params.default with
      (* Leaf controllers read the shared once-per-interval oracle
         capture instead of each taking a private O(edges) snapshot (the
         service cuts it into per-domain views once for all of them),
         and only prescribe to receivers they have heard from — both are
         what keeps control-plane work O(domains + reporters) here. *)
      staleness = Toposense.Params.default.interval;
      prescribe_known_only = true;
    }
  in
  let discovery =
    Discovery.Service.create ~sim ~router ~period:params.interval ~history:4 ()
  in
  let source, receivers =
    match spec.Builders.sessions with
    | [ (source, receivers) ] -> (source, receivers)
    | _ -> invalid_arg "Scale.run: expected exactly one session"
  in
  let session =
    Traffic.Session.create ~router ~source
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
       ~rng:(Sim.rng sim ~label:"source-0") ());
  (* Federation parent at the source; one leaf controller per stub
     domain, stationed at the stub router. Every leaf summarizes every
     interval, so the parent's slot table fills to sessions x domains
     regardless of how many receivers (or reporters) sit below. *)
  let parent = Toposense.Federation.create_parent ~network ~node:source in
  let controllers =
    List.map
      (fun (domain_id, members) ->
        let ctrl_node = List.hd members in
        let c =
          Toposense.Controller.create ~network ~discovery ~params
            ~node:ctrl_node ~domain:members
            ~federation:(Toposense.Federation.leaf ~parent:source ~domain_id)
            ()
        in
        Toposense.Controller.add_session c session;
        Toposense.Controller.start c;
        c)
      world.Builders.domains
  in
  (* The full population joins the base layer (bitset membership at
     scale); only a sampled handful per domain — the first
     [active_per_domain] receivers of the first [active_domains] domains
     — runs a real reporting/prescription agent. The rest are passive
     listeners, exactly the receivers [prescribe_known_only] exists
     for. *)
  let base_group = Traffic.Session.group_for_layer session ~layer:0 in
  let agents =
    List.concat_map
      (fun (domain_id, members) ->
        match members with
        | [] -> []
        | ctrl_node :: rs ->
            if domain_id >= config.active_domains then []
            else
              List.filteri (fun i _ -> i < config.active_per_domain) rs
              |> List.map (fun node ->
                     let a =
                       Toposense.Receiver_agent.create ~network ~router
                         ~params ~node ~controller:ctrl_node ()
                     in
                     Toposense.Receiver_agent.subscribe a ~session
                       ~initial_level:1;
                     Toposense.Receiver_agent.start a;
                     a))
      world.Builders.domains
  in
  let agent_nodes =
    Util.Bitset.of_list (List.map Toposense.Receiver_agent.node agents)
  in
  List.iter
    (fun node ->
      if not (Util.Bitset.mem agent_nodes node) then
        Multicast.Router.join router ~node ~group:base_group)
    receivers;
  let build_cpu_s = Sys.time () -. build_t0 in
  let exec () =
    let run_t0 = Sys.time () in
    Sim.run_until sim config.duration;
    let run_cpu_s = Sys.time () -. run_t0 in
    let routing = Net.Network.routing network in
    let materialized_columns = Net.Routing.materialized_columns routing in
    (* Routing memory is proportional to materialized columns, and only
       unicast actually used in this world materializes one: reports to
       the [active_domains] stub routers, suggestions to the sampled
       agents, plus the source column shared by joins and summaries. The
       bound is derived from the config alone — receiver count does not
       appear in it. *)
    let column_bound =
      (config.active_domains * (config.active_per_domain + 1)) + 2
    in
    if materialized_columns > column_bound then
      Format.kasprintf failwith
        "Scale.run: %d routing columns materialized, bound %d — lazy \
         routing is leaking table state"
        materialized_columns column_bound;
    {
      nodes = Net.Topology.node_count spec.Builders.topology;
      links = List.length (Net.Topology.links spec.Builders.topology);
      receivers = List.length receivers;
      domains = List.length world.Builders.domains;
      shards = 1;
      active_agents = List.length agents;
      events_dispatched = Sim.events_dispatched sim;
      events_per_sec =
        (let total = run_cpu_s in
         if total > 0.0 then float_of_int (Sim.events_dispatched sim) /. total
         else 0.0);
      build_cpu_s;
      run_cpu_s;
      peak_rss_kb = peak_rss_kb ();
      materialized_columns;
      column_bound;
      parent_state_entries = Toposense.Federation.state_entries parent;
      summaries_received = Toposense.Federation.summaries_received parent;
      suggestions_sent =
        List.fold_left
          (fun acc c -> acc + Toposense.Controller.suggestions_sent c)
          0 controllers;
      reports_received =
        List.fold_left
          (fun acc c -> acc + Toposense.Controller.reports_received c)
          0 controllers;
      controller_state_entries =
        List.fold_left
          (fun acc c -> acc + Toposense.Controller.receiver_state_entries c)
          0 controllers;
    }
  in
  { p_shards = 1; p_exec = exec }

(* ---------- sharded runs (Engine.Shard; roadmap item 1) ---------- *)

(* What crosses a region boundary: a serialized packet finishing its
   flight on a boundary link, or a tree-protocol graft/prune hop landing
   on a node the posting region does not own. *)
type xmsg =
  | Xpkt of { xsrc : int; xdst : int; flat : Net.Packet.flat }
  | Xgraft of { gparent : int; gchild : int; ggroup : int }
  | Xprune of { pparent : int; pchild : int; pgroup : int }

type region = {
  r_sim : Sim.t;
  r_network : Net.Network.t;
  r_router : Multicast.Router.t;
  r_parent : Toposense.Federation.parent option;  (* core region only *)
  r_controllers : Toposense.Controller.t list;
  r_agent_count : int;
}

(* One partitioned run: every region replicates the whole (static)
   world — its own simulator, network, router, discovery and session
   over the shared topology, so group numbering and component PRNG
   streams are identical to the sequential run by construction — but
   only runs the actors at nodes it owns. Region 0 is the transit core
   (source, transit ring, federation parent); stub domain [d] lives in
   region [1 + d mod (shards-1)], whole — a domain never splits, so
   controller, agents and receivers of one stub always share a region
   and every boundary crossing is a stub uplink or a graft/prune hop
   over one. Boundary links keep their serialization and queueing in
   the owning region (wire timing is untouched); only the propagation
   leg is carried across, which is what makes the minimum boundary
   propagation delay the conservative lookahead. *)
let prepare_sharded config ~shards =
  let build_t0 = Sys.time () in
  let world =
    Builders.transit_stub ~transits:config.transits
      ~stubs_per_transit:config.stubs_per_transit
      ~receivers_per_stub:config.receivers_per_stub ()
  in
  let spec = world.Builders.spec in
  let topology = spec.Builders.topology in
  let source, receivers =
    match spec.Builders.sessions with
    | [ (source, receivers) ] -> (source, receivers)
    | _ -> invalid_arg "Scale.run: expected exactly one session"
  in
  let region_of = Array.make (Net.Topology.node_count topology) 0 in
  List.iter
    (fun (stub_id, members) ->
      let r = 1 + (stub_id mod (shards - 1)) in
      List.iter (fun n -> region_of.(n) <- r) members)
    world.Builders.domains;
  let lookahead =
    List.fold_left
      (fun acc (l : Net.Topology.link_spec) ->
        if region_of.(l.a) <> region_of.(l.b) then min acc l.delay else acc)
      max_int
      (Net.Topology.links topology)
  in
  if lookahead = max_int then
    invalid_arg "Scale.run: no boundary links between regions";
  let shard = Engine.Shard.create ~regions:shards ~lookahead in
  let params =
    {
      Toposense.Params.default with
      staleness = Toposense.Params.default.interval;
      prescribe_known_only = true;
    }
  in
  let build_region w =
    let owns n = region_of.(n) = w in
    let sim = Sim.create ~seed:config.seed () in
    let network = Net.Network.create ~sim topology in
    let router = Multicast.Router.create ~network () in
    (* Wire the seams before any actor can schedule a graft or send. *)
    Net.Network.set_shard_boundary network ~owns ~post:(fun ~src ~dst ~at flat ->
        Engine.Shard.post shard ~src:w ~dst:region_of.(dst) ~at
          (Xpkt { xsrc = src; xdst = dst; flat }));
    Multicast.Router.set_shard_bridge router ~owns
      ~post_graft:(fun ~parent ~child ~group ~delay ->
        Engine.Shard.post shard ~src:w ~dst:region_of.(parent)
          ~at:(Time.add (Sim.now sim) delay)
          (Xgraft { gparent = parent; gchild = child; ggroup = group }))
      ~post_prune:(fun ~parent ~child ~group ~delay ->
        Engine.Shard.post shard ~src:w ~dst:region_of.(parent)
          ~at:(Time.add (Sim.now sim) delay)
          (Xprune { pparent = parent; pchild = child; pgroup = group }));
    let discovery =
      Discovery.Service.create ~sim ~router ~period:params.interval ~history:4
        ()
    in
    let session =
      Traffic.Session.create ~router ~source
        ~layering:Traffic.Layering.paper_default ~id:0
    in
    Discovery.Service.register_session discovery session;
    if owns source then
      ignore
        (Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
           ~rng:(Sim.rng sim ~label:"source-0") ());
    let parent =
      if owns source then
        Some (Toposense.Federation.create_parent ~network ~node:source)
      else None
    in
    let controllers =
      List.filter_map
        (fun (domain_id, members) ->
          let ctrl_node = List.hd members in
          if not (owns ctrl_node) then None
          else begin
            let c =
              Toposense.Controller.create ~network ~discovery ~params
                ~node:ctrl_node ~domain:members
                ~federation:
                  (Toposense.Federation.leaf ~parent:source ~domain_id)
                ()
            in
            Toposense.Controller.add_session c session;
            Toposense.Controller.start c;
            Some c
          end)
        world.Builders.domains
    in
    let agents =
      List.concat_map
        (fun (domain_id, members) ->
          match members with
          | [] -> []
          | ctrl_node :: rs ->
              if domain_id >= config.active_domains || not (owns ctrl_node)
              then []
              else
                List.filteri (fun i _ -> i < config.active_per_domain) rs
                |> List.map (fun node ->
                       let a =
                         Toposense.Receiver_agent.create ~network ~router
                           ~params ~node ~controller:ctrl_node ()
                       in
                       Toposense.Receiver_agent.subscribe a ~session
                         ~initial_level:1;
                       Toposense.Receiver_agent.start a;
                       a))
        world.Builders.domains
    in
    let base_group = Traffic.Session.group_for_layer session ~layer:0 in
    let agent_nodes =
      Util.Bitset.of_list (List.map Toposense.Receiver_agent.node agents)
    in
    List.iter
      (fun node ->
        if owns node && not (Util.Bitset.mem agent_nodes node) then
          Multicast.Router.join router ~node ~group:base_group)
      receivers;
    {
      r_sim = sim;
      r_network = network;
      r_router = router;
      r_parent = parent;
      r_controllers = controllers;
      r_agent_count = List.length agents;
    }
  in
  let regions = Array.init shards build_region in
  let sims = Array.map (fun r -> r.r_sim) regions in
  let deliver w ~at msg =
    let r = regions.(w) in
    ignore
      (Sim.schedule_at r.r_sim at (fun () ->
           match msg with
           | Xpkt { xsrc; xdst; flat } ->
               Net.Network.admit_remote r.r_network ~src:xsrc ~dst:xdst flat
           | Xgraft { gparent; gchild; ggroup } ->
               Multicast.Router.admit_graft r.r_router ~parent:gparent
                 ~child:gchild ~group:ggroup
           | Xprune { pparent; pchild; pgroup } ->
               Multicast.Router.admit_prune r.r_router ~parent:pparent
                 ~child:pchild ~group:pgroup))
  in
  let build_cpu_s = Sys.time () -. build_t0 in
  let exec () =
    let run_t0 = Sys.time () in
    Engine.Shard.run shard ~sims ~deliver ~until:config.duration;
    let run_cpu_s = Sys.time () -. run_t0 in
    (* Fixed region order (0 .. shards-1) for every reduction. *)
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 regions in
    let sum_ctrl f =
      sum (fun r ->
          List.fold_left (fun acc c -> acc + f c) 0 r.r_controllers)
    in
    let parent =
      match regions.(0).r_parent with
      | Some p -> p
      | None -> invalid_arg "Scale.run: core region lost its parent"
    in
    let materialized_columns =
      sum (fun r -> Net.Routing.materialized_columns (Net.Network.routing r.r_network))
    in
    (* Per the sequential bound, plus one source column per region: every
       region resolves reverse paths toward the source for its own joins,
       RPF checks and summary forwarding. *)
    let column_bound =
      (config.active_domains * (config.active_per_domain + 1)) + 2 + shards
    in
    if materialized_columns > column_bound then
      Format.kasprintf failwith
        "Scale.run: %d routing columns materialized across %d regions, \
         bound %d — lazy routing is leaking table state"
        materialized_columns shards column_bound;
    let events = sum (fun r -> Sim.events_dispatched r.r_sim) in
    {
      nodes = Net.Topology.node_count topology;
      links = List.length (Net.Topology.links topology);
      receivers = List.length receivers;
      domains = List.length world.Builders.domains;
      shards;
      active_agents = sum (fun r -> r.r_agent_count);
      events_dispatched = events;
      events_per_sec =
        (if run_cpu_s > 0.0 then float_of_int events /. run_cpu_s else 0.0);
      build_cpu_s;
      run_cpu_s;
      peak_rss_kb = peak_rss_kb ();
      materialized_columns;
      column_bound;
      parent_state_entries = Toposense.Federation.state_entries parent;
      summaries_received = Toposense.Federation.summaries_received parent;
      suggestions_sent =
        sum_ctrl Toposense.Controller.suggestions_sent;
      reports_received =
        sum_ctrl Toposense.Controller.reports_received;
      controller_state_entries =
        sum_ctrl Toposense.Controller.receiver_state_entries;
    }
  in
  { p_shards = shards; p_exec = exec }

let prepare ?(config = config_10k) ?(shards = 1) () =
  validate config;
  if shards < 1 then invalid_arg "Scale.prepare: shards < 1";
  if shards = 1 then prepare_sequential config
  else begin
    if shards - 1 > domains_of config then
      invalid_arg "Scale.prepare: more stub regions than stub domains";
    prepare_sharded config ~shards
  end

let execute p = p.p_exec ()
let shards_of_prepared p = p.p_shards

let run ?config ?shards () = execute (prepare ?config ?shards ())

let pp ppf o =
  if o.shards > 1 then
    Format.fprintf ppf "sharded: %d regions (1 core + %d stub regions)@."
      o.shards (o.shards - 1);
  Format.fprintf ppf
    "@[<v>scale: %d nodes, %d links, %d receivers in %d domains@,\
     agents: %d active reporters; %d reports in, %d suggestions out@,\
     federation: %d summaries -> %d parent slots (O(domains) state)@,\
     controller state: %d receiver entries across %d leaf controllers@,\
     routing: %d/%d columns materialized (bound from config, not world \
     size)@,\
     engine: %d events, %.0f events/s (run %.2fs cpu, build %.2fs cpu)@,\
     peak RSS: %d kB@]"
    o.nodes o.links o.receivers o.domains o.active_agents o.reports_received
    o.suggestions_sent o.summaries_received o.parent_state_entries
    o.controller_state_entries o.domains o.materialized_columns
    o.column_bound o.events_dispatched o.events_per_sec o.run_cpu_s
    o.build_cpu_s o.peak_rss_kb
