module Sim = Engine.Sim
module Time = Engine.Time
module Network = Net.Network
module Session = Traffic.Session
module Layering = Traffic.Layering

type traffic =
  | Cbr
  | Vbr of float

type scheme =
  | Toposense
  | Rlm
  | Oracle

type receiver_outcome = {
  session : int;
  node : Net.Addr.node_id;
  optimal : int;
  changes : (Time.t * int) list;
  final_level : int;
  last_loss : float;
}

type sample = { at : Time.t; level : int; loss : float }

type outcome = {
  receivers : receiver_outcome list;
  series : ((int * Net.Addr.node_id) * sample list) list;
  reports_received : int;
  suggestions_sent : int;
  skipped_no_snapshot : int;
  events_dispatched : int;
  forwarded_packets : int;
  peak_heap : int;
  peak_live : int;
  duration : Time.t;
}

(* Total packet transmissions across every simplex link — each hop a
   packet takes counts once, so this tracks forwarding work, not
   originations. *)
let forwarded_packets_of network =
  let total = ref 0 in
  for n = 0 to Network.node_count network - 1 do
    for i = 0 to Network.iface_count network n - 1 do
      total :=
        !total + Net.Link.tx_packets (Network.link_on_iface network ~node:n ~iface:i)
    done
  done;
  !total

let source_kind traffic =
  match traffic with
  | Cbr -> Traffic.Source.Cbr
  | Vbr p -> Traffic.Source.Vbr { peak_to_mean = p }

(* A uniform view over the three schemes' per-receiver agents. *)
type agent =
  | Topo_agent of Toposense.Receiver_agent.t
  | Rlm_agent of Baseline.Rlm.t
  | Oracle_agent of { changes : (Time.t * int) list; level : int }

let run ~spec ~traffic ~scheme ?(params = Toposense.Params.default)
    ?(seed = 42L) ?(duration = Time.of_sec 1200) ?sample_period
    ?(leave_latency = Time.span_of_sec 1) ?(expedited_leave = false)
    ?(probe_discovery = false) () =
  let control, agents =
    match scheme with
    | Toposense ->
        (World.Flat { probe = probe_discovery }, World.Every_receiver)
    | Rlm | Oracle -> (World.No_control, World.No_agents)
  in
  let w =
    World.build ~spec ~seed ~params ~leave_latency ~expedited_leave
      ~traffic:(source_kind traffic) ~control ~agents ()
  in
  let sim = w.sim and network = w.network and router = w.router in
  let layering = Layering.paper_default in
  let optimal ~source ~receiver =
    Baseline.Static_oracle.optimal_level ~topology:spec.Builders.topology
      ~routing:(Network.routing network) ~layering
      ~sessions:spec.Builders.sessions ~source ~receiver
  in
  (* One agent per (session, receiver): the world's for TopoSense. *)
  let agents =
    List.concat
      (List.map2
         (fun session (source, receivers) ->
           List.map
             (fun node ->
               let agent =
                 match scheme with
                 | Toposense -> Topo_agent (List.assoc node w.agents)
                 | Rlm ->
                     let a =
                       Baseline.Rlm.create ~network ~router ~node ~session ()
                     in
                     Baseline.Rlm.start a;
                     Rlm_agent a
                 | Oracle ->
                     let level = optimal ~source ~receiver:node in
                     Session.set_subscription_level session ~router ~node
                       ~level;
                     Oracle_agent { changes = [ (Time.zero, level) ]; level }
               in
               (session, source, node, agent))
             receivers)
         w.sessions spec.Builders.sessions)
  in
  (* Optional per-second sampling for the Fig. 9 style series. *)
  let series_acc = Hashtbl.create 16 in
  (match sample_period with
  | None -> ()
  | Some period ->
      List.iter
        (fun (session, _source, node, agent) ->
          let id = Session.id session in
          Hashtbl.replace series_acc (id, node) [];
          let probe () =
            let level, loss =
              match agent with
              | Topo_agent a ->
                  ( Toposense.Receiver_agent.level a ~session:id,
                    Toposense.Receiver_agent.last_window_loss a ~session:id )
              | Rlm_agent a ->
                  (Baseline.Rlm.level a, Baseline.Rlm.last_window_loss a)
              | Oracle_agent o -> (o.level, 0.0)
            in
            let prev = Hashtbl.find series_acc (id, node) in
            Hashtbl.replace series_acc (id, node)
              ({ at = Sim.now sim; level; loss } :: prev)
          in
          ignore (Sim.every sim ~period (fun () -> probe ())))
        agents);
  Sim.run_until sim duration;
  let receivers =
    List.map
      (fun (session, source, node, agent) ->
        let id = Session.id session in
        let changes, final_level, last_loss =
          match agent with
          | Topo_agent a ->
              ( Toposense.Receiver_agent.changes a ~session:id,
                Toposense.Receiver_agent.level a ~session:id,
                Toposense.Receiver_agent.last_window_loss a ~session:id )
          | Rlm_agent a ->
              (Baseline.Rlm.changes a, Baseline.Rlm.level a,
               Baseline.Rlm.last_window_loss a)
          | Oracle_agent o -> (o.changes, o.level, 0.0)
        in
        {
          session = id;
          node;
          optimal = optimal ~source ~receiver:node;
          changes;
          final_level;
          last_loss;
        })
      agents
  in
  let series =
    Hashtbl.fold
      (fun key samples acc -> (key, List.rev samples) :: acc)
      series_acc []
    |> List.sort compare
  in
  {
    receivers;
    series;
    reports_received =
      Option.fold ~none:0 ~some:Toposense.Controller.reports_received w.flat;
    suggestions_sent =
      Option.fold ~none:0 ~some:Toposense.Controller.suggestions_sent w.flat;
    skipped_no_snapshot =
      Option.fold ~none:0 ~some:Toposense.Controller.skipped_no_snapshot
        w.flat;
    events_dispatched = Sim.events_dispatched sim;
    forwarded_packets = forwarded_packets_of network;
    peak_heap = Sim.max_pending sim;
    peak_live = Sim.max_live_pending sim;
    duration;
  }

let pp_traffic ppf = function
  | Cbr -> Format.pp_print_string ppf "CBR"
  | Vbr p -> Format.fprintf ppf "VBR(P=%g)" p

let pp_scheme ppf = function
  | Toposense -> Format.pp_print_string ppf "TopoSense"
  | Rlm -> Format.pp_print_string ppf "RLM"
  | Oracle -> Format.pp_print_string ppf "Oracle"
