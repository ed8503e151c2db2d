module Sim = Engine.Sim
module Time = Engine.Time

type receiver_report = {
  node : Net.Addr.node_id;
  joined_at_s : float;
  left_at_s : float option;
  optimal : int;
  reach_s : float option;
  disruptions : int;
  final_level : int;
}

type outcome = {
  receivers : receiver_report list;
  mean_reach_s : float option;
  reached : int;
  total : int;
}

let run ?(receivers_per_set = 4) ?(join_gap_s = 20.0)
    ?(leave_half_at_s = 400.0) ?(duration = Time.of_sec 600) ?(seed = 42L) ()
    =
  let spec = Builders.topology_a ~receivers_per_set in
  let w =
    World.build ~spec ~seed ~source_label:(fun _ -> "source")
      ~control:(World.Flat { probe = false }) ~agents:World.No_agents ()
  in
  let sim = w.sim in
  let source, receivers =
    match spec.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  (* Interleave the two branches in join order so each branch sees
     arrivals while its earlier members are established. *)
  let interleaved =
    let fast, slow =
      List.filteri (fun i _ -> i < receivers_per_set) receivers,
      List.filteri (fun i _ -> i >= receivers_per_set) receivers
    in
    List.concat (List.map2 (fun a b -> [ a; b ]) fast slow)
  in
  let horizon_s = Time.to_sec_f duration in
  (* Only receivers that join before the horizon are planned, so the
     report covers exactly the receivers that ran. *)
  let plans =
    List.mapi
      (fun i node ->
        let joined_at_s = float_of_int i *. join_gap_s in
        let leaves = i mod 2 = 1 in
        let left_at_s =
          if leaves && leave_half_at_s < horizon_s then Some leave_half_at_s
          else None
        in
        (node, joined_at_s, left_at_s))
      interleaved
    |> List.filter (fun (_, joined_at_s, _) -> joined_at_s < horizon_s)
  in
  let agents = Hashtbl.create 16 in
  List.iter
    (fun (node, joined_at_s, left_at_s) ->
      ignore
        (Sim.schedule_at sim (Time.of_sec_f joined_at_s) (fun () ->
             Hashtbl.replace agents node
               (World.add_agent w ~node
                  ~controller:spec.Builders.controller_node)));
      Option.iter
        (fun at_s ->
          ignore
            (Sim.schedule_at sim (Time.of_sec_f at_s) (fun () ->
                 match Hashtbl.find_opt agents node with
                 | Some a ->
                     Toposense.Receiver_agent.set_level a ~session:0 ~level:0;
                     Toposense.Receiver_agent.stop a
                 | None -> ())))
        left_at_s)
    plans;
  Sim.run_until sim duration;
  let routing = Net.Network.routing w.network in
  let reports =
    List.map
      (fun (node, joined_at_s, left_at_s) ->
        let a = Hashtbl.find agents node in
        let changes = Toposense.Receiver_agent.changes a ~session:0 in
        let optimal =
          Baseline.Static_oracle.optimal_level ~topology:spec.Builders.topology
            ~routing ~layering:Traffic.Layering.paper_default
            ~sessions:spec.Builders.sessions ~source ~receiver:node
        in
        let joined_at = Time.of_sec_f joined_at_s in
        let reach =
          Metrics.Convergence.time_to_first_reach ~changes ~joined_at
            ~target:optimal
        in
        let window_end =
          match left_at_s with
          | Some s -> Time.of_sec_f s
          | None -> duration
        in
        let disruptions =
          match reach with
          | None -> 0
          | Some span ->
              Metrics.Convergence.disruption ~changes
                ~window:(Time.add joined_at span, window_end)
                ~baseline:optimal
        in
        {
          node;
          joined_at_s;
          left_at_s;
          optimal;
          reach_s = Option.map Time.span_to_sec_f reach;
          disruptions;
          final_level = Toposense.Receiver_agent.level a ~session:0;
        })
      plans
  in
  let reached = List.filter (fun r -> r.reach_s <> None) reports in
  {
    receivers = reports;
    mean_reach_s =
      (match reached with
      | [] -> None
      | _ ->
          Some
            (List.fold_left
               (fun acc r -> acc +. Option.get r.reach_s)
               0.0 reached
            /. float_of_int (List.length reached)));
    reached = List.length reached;
    total = List.length reports;
  }
