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

(* A built world at the build/run seam, so callers (the bench) can time
   world construction separately from the simulation. *)
type prepared = {
  config : config;
  world : Builders.world;
  built : World.t;
  build_cpu_s : float;
}

let prepare ?(config = config_10k) () =
  let build_t0 = Sys.time () in
  let world =
    Builders.transit_stub ~transits:config.transits
      ~stubs_per_transit:config.stubs_per_transit
      ~receivers_per_stub:config.receivers_per_stub ()
  in
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
  (* Federation parent at the source; one leaf controller per stub
     domain, stationed at the stub router. Every leaf summarizes every
     interval, so the parent's slot table fills to sessions x domains
     regardless of how many receivers (or reporters) sit below. The full
     population joins the base layer (bitset membership at scale); only
     a sampled handful per domain — the first [active_per_domain]
     receivers of the first [active_domains] domains — runs a real
     reporting/prescription agent. The rest are passive listeners,
     exactly the receivers [prescribe_known_only] exists for. *)
  let { active_domains; active_per_domain; _ } = config in
  let built =
    World.build ~spec:world.Builders.spec ~domains:world.Builders.domains
      ~seed:config.seed ~params ~discovery_period:params.interval
      ~discovery_history:4 ~control:(World.Federated { rehome = false })
      ~agents:(World.Sampled { active_domains; active_per_domain })
      ()
  in
  { config; world; built; build_cpu_s = Sys.time () -. build_t0 }

let execute (p : prepared) =
  let run_t0 = Sys.time () in
  Sim.run_until p.built.sim p.config.duration;
  let run_cpu_s = Sys.time () -. run_t0 in
  let routing = Net.Network.routing p.built.network in
  let materialized_columns = Net.Routing.materialized_columns routing in
  (* Routing memory is materialized columns × core nodes. A column holds
     entries for the transit and stub routers only: every receiver, and
     the source, is a pendant answered from its one link. Only unicast
     actually used in this world materializes a column: reports to the
     [active_domains] stub routers, suggestions to the sampled agents,
     plus the source column shared by joins and summaries. The bound is
     derived from the config alone — receiver count does not appear in
     it. *)
  let column_bound =
    (p.config.active_domains * (p.config.active_per_domain + 1)) + 2
  in
  if materialized_columns > column_bound then
    Format.kasprintf failwith
      "Scale.run: %d routing columns materialized, bound %d — lazy routing \
       is leaking table state"
      materialized_columns column_bound;
  let topology = p.world.Builders.spec.Builders.topology in
  let sum_ctrl f =
    List.fold_left (fun acc (_, c) -> acc + f c) 0 p.built.controllers
  in
  let parent = Option.get p.built.parent in
  let events = Sim.events_dispatched p.built.sim in
  {
    nodes = Net.Topology.node_count topology;
    links = List.length (Net.Topology.links topology);
    receivers = receivers_of p.config;
    domains = List.length p.world.Builders.domains;
    active_agents = List.length p.built.agents;
    events_dispatched = events;
    events_per_sec =
      (if run_cpu_s > 0.0 then float_of_int events /. run_cpu_s else 0.0);
    build_cpu_s = p.build_cpu_s;
    run_cpu_s;
    peak_rss_kb = peak_rss_kb ();
    materialized_columns;
    column_bound;
    parent_state_entries = Toposense.Federation.state_entries parent;
    summaries_received = Toposense.Federation.summaries_received parent;
    suggestions_sent = sum_ctrl Toposense.Controller.suggestions_sent;
    reports_received = sum_ctrl Toposense.Controller.reports_received;
    controller_state_entries =
      sum_ctrl Toposense.Controller.receiver_state_entries;
  }

let run ?config () = execute (prepare ?config ())

let pp ppf o =
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
