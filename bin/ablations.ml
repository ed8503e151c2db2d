(* The [ablations] subcommand: the questions the paper's Sections V and VI
   raise beyond its figures, one section each and one line per variant.
   Every run uses fixed seeds, so the output depends on [duration] alone;
   the simulcast and TCP sections run fixed horizons of their own. *)

module Time = Engine.Time
module Experiment = Scenarios.Experiment
module Tiered = Scenarios.Tiered
module Head_to_head = Scenarios.Head_to_head

let default_params = Toposense.Params.default

(* One run on Topology A with [receivers_per_set] receivers per branch
   and each link's queue discipline mapped through [queues]: the mean
   relative deviation and the worst receiver's change count. *)
let run ?(receivers_per_set = 2) ?(queues = Fun.id)
    ?(scheme = Experiment.Toposense) ?params ?leave_latency ?expedited_leave
    ?probe_discovery traffic ~duration =
  let spec =
    Scenarios.Builders.(
      map_disciplines queues (topology_a ~receivers_per_set))
  in
  let o =
    Experiment.run ~spec ~traffic ~scheme ?params ?leave_latency
      ?expedited_leave ?probe_discovery ~duration ()
  in
  let receivers =
    List.map
      (fun (r : Experiment.receiver_outcome) -> (r.changes, r.optimal))
      o.receivers
  in
  let window = (Time.zero, duration) in
  ( Metrics.Deviation.mean_relative_deviation ~receivers ~window,
    (Metrics.Stability.worst ~logs:(List.map fst receivers) ~window).changes )

(* "<label> deviation D, max changes C", one line per labelled run. *)
let rows ?(deviation = "deviation") runs ~duration =
  List.iter
    (fun (label, run) ->
      let dev, changes = run ~duration in
      Format.printf "%s %s %.3f, max changes %d@." label deviation dev changes)
    runs

let pad width label = Printf.sprintf "%-*s" width label

(* RED or priority dropping in place of each drop-tail queue, at its
   limit. *)
let red =
  Net.Queue_discipline.(function
    | Drop_tail { limit } -> default_red ~limit | d -> d)

let priority =
  Net.Queue_discipline.(function
    | Drop_tail { limit } -> Priority { limit } | d -> d)

let sections =
  [
    ( "Ablation: TopoSense vs RLM vs Oracle (Topology A, 4+4, VBR P=3)",
      rows ~deviation:"mean deviation"
        (List.map
           (fun scheme ->
             ( Format.asprintf "%a:" Experiment.pp_scheme scheme,
               run ~receivers_per_set:4 ~scheme (Experiment.Vbr 3.0) ))
           [ Experiment.Toposense; Experiment.Rlm; Experiment.Oracle ]) );
    ( "Ablation: capacity re-estimation period (Topology A, 2+2, CBR)",
      rows
        (List.map
           (fun reset ->
             ( Printf.sprintf "capacity reset every %2d intervals:" reset,
               let params =
                 { default_params with capacity_reset_intervals = reset }
               in
               run ~params Experiment.Cbr ))
           [ 5; 15; 45 ]) );
    ( "Ablation: group-leave latency (Topology A, 2+2, CBR)",
      rows
        (List.map
           (fun (label, leave_latency, expedited_leave) ->
             ( pad 22 label,
               run ~leave_latency ~expedited_leave Experiment.Cbr ))
           [
             ("expedited (Section V)", Time.span_of_ms 1, true);
             ("leave latency 0.5 s", Time.span_of_ms 500, false);
             ("leave latency 1 s", Time.span_of_sec 1, false);
             ("leave latency 3 s", Time.span_of_sec 3, false);
           ]) );
    ( "Ablation: queue discipline on all links (Topology A, 2+2, VBR P=3)",
      rows
        [
          (pad 12 "drop-tail", run (Experiment.Vbr 3.0));
          (pad 12 "RED", run ~queues:red (Experiment.Vbr 3.0));
          (pad 12 "priority", run ~queues:priority (Experiment.Vbr 3.0));
        ] );
    ( "Tiered Internet (Fig. 2/3): global vs per-domain control, VBR P=3",
      fun ~duration ->
        List.iter
          (fun sessions ->
            let config = { Tiered.default_config with sessions } in
            let world = Tiered.generate ~config ~seed:11L () in
            List.iter
              (fun control ->
                let o = Tiered.run ~world ~control ~duration () in
                Format.printf
                  "%d session(s), %-12s controllers %d, mean deviation %.3f@."
                  sessions
                  (Tiered.control_name control)
                  o.controllers o.mean_deviation)
              [ Tiered.Global; Tiered.Per_domain ])
          [ 1; 2 ] );
    ( "Simulcast vs layering: bytes on the shared source link (60 s, oracle \
       subscriptions)",
      fun ~duration:_ ->
        let { Head_to_head.layered; simulcast } =
          Head_to_head.shared_link_bytes ()
        in
        Format.printf
          "layered %d B, simulcast %d B (x%.2f) — layering's bandwidth \
           saving on shared links@."
          layered simulcast
          (float_of_int simulcast /. float_of_int layered) );
    ( "Discovery: oracle service vs in-band probing (Topology A, 2+2, CBR)",
      rows
        [
          (pad 14 "oracle", run ~probe_discovery:false Experiment.Cbr);
          (pad 14 "probe-based", run ~probe_discovery:true Experiment.Cbr);
        ] );
    ( "TCP friendliness (Section VI): one AIMD flow vs one TopoSense \
       session, 1 Mbps",
      fun ~duration:_ ->
        let o = Head_to_head.tcp_vs_toposense () in
        Format.printf
          "TCP alone: %.0f kbps; against TopoSense: %.0f kbps while the \
           session holds %d layers (%.0f kbps) — the paper's admitted \
           asymmetry@."
          (o.alone_bps /. 1000.0) (o.shared_bps /. 1000.0) o.level
          (Traffic.Layering.cumulative_bps Traffic.Layering.paper_default
             ~level:o.level
          /. 1000.0) );
    ( "Ablation: bursty vs sustained loss filter (Section V), Topology A, \
       2+2, VBR P=6",
      rows
        (List.map
           (fun (label, require_sustained_loss) ->
             ( pad 22 label,
               run
                 ~params:{ default_params with require_sustained_loss }
                 (Experiment.Vbr 6.0) ))
           [ ("react to any loss", false); ("sustained loss only", true) ]) );
    ( "Ablation: TopoSense interval size (Topology A, 2+2, VBR P=3)",
      rows
        (List.map
           (fun secs ->
             ( Printf.sprintf "interval %d s:" secs,
               let interval = Time.span_of_sec secs in
               run ~params:{ default_params with interval } (Experiment.Vbr 3.0)
             ))
           [ 1; 2; 4; 8 ]) );
  ]

let run ~duration =
  List.iteri
    (fun i (title, section) ->
      if i > 0 then Format.printf "@.";
      Format.printf "=== %s ===@." title;
      section ~duration)
    sections
