(* Regenerates every table and figure of the paper's evaluation (Table I,
   Figs. 6-10) plus the ablations, and prints the same rows/series the
   paper reports. Durations default to 600 simulated seconds per run so
   the whole harness finishes in a couple of minutes; set BENCH_FULL=1 for
   the paper's 1200 s. Speed is measured by bench/suite, not here.

   The only argument is [--jobs N] (N >= 1), which fans the figure sweeps
   across domains, clamped to the machine's cores. Anything else is a
   usage error, so a stale invocation fails instead of silently running
   the whole multi-minute harness. *)

module Time = Engine.Time
module Experiment = Scenarios.Experiment
module Figures = Scenarios.Figures

let full = Sys.getenv_opt "BENCH_FULL" <> None
let duration = Time.of_sec (if full then 1200 else 600)

let jobs =
  let usage_error fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline
          ("bench/main.exe: " ^ msg ^ "; usage: bench/main.exe [--jobs N]");
        exit 2)
      fmt
  in
  let rec parse jobs = function
    | [] -> jobs
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse j rest
        | _ -> usage_error "--jobs expects a positive integer, got %S" n)
    | [ "--jobs" ] -> usage_error "--jobs expects a value"
    | arg :: _ -> usage_error "unknown argument %S" arg
  in
  min (parse 1 (List.tl (Array.to_list Sys.argv))) (Scenarios.Sweep.cores ())

let header fmt = Format.printf "@.=== %s ===@." fmt

let run_table1 () =
  header "Table I: decision table (node kind x history x BW equality)";
  List.iter
    (fun r -> Format.printf "%a@." Figures.pp_table1_row r)
    (Figures.table1 ())

let run_fig6 () =
  header
    (Printf.sprintf
       "Fig. 6: stability, Topology A (max subscription changes by any \
        receiver, %.0f s)"
       (Time.to_sec_f duration));
  List.iter
    (fun r -> Format.printf "%a@." Figures.pp_stability_row r)
    (Figures.fig6 ~duration ~set_sizes:[ 1; 2; 4; 8; 16 ] ~jobs ())

let run_fig7 () =
  header
    (Printf.sprintf "Fig. 7: stability, Topology B (%.0f s)"
       (Time.to_sec_f duration));
  List.iter
    (fun r -> Format.printf "%a@." Figures.pp_stability_row r)
    (Figures.fig7 ~duration ~session_counts:[ 1; 2; 4; 8; 16 ] ~jobs ())

let run_fig8 () =
  header
    (Printf.sprintf
       "Fig. 8: inter-session fairness, Topology B (mean relative deviation \
        per half, %.0f s)"
       (Time.to_sec_f duration));
  List.iter
    (fun r -> Format.printf "%a@." Figures.pp_fairness_row r)
    (Figures.fig8 ~duration ~session_counts:[ 1; 2; 4; 8; 16 ] ~jobs ())

let run_fig9 () =
  header
    "Fig. 9: layer subscription and loss, 4 competing VBR(P=3) sessions \
     (time level loss)";
  let lo = if full then 300.0 else 200.0 in
  List.iter
    (fun (session, points) ->
      Format.printf "# session %d@." session;
      List.iter
        (fun (p : Figures.series_point) ->
          Format.printf "%.0f %d %.3f@." p.at_s p.level p.loss)
        points)
    (Figures.fig9 ~duration ~window:(lo, lo +. 30.0) ())

let run_fig10 () =
  header
    (Printf.sprintf
       "Fig. 10: impact of stale topology information, Topology A, VBR P=3 \
        (%.0f s)"
       (Time.to_sec_f duration));
  List.iter
    (fun r -> Format.printf "%a@." Figures.pp_staleness_row r)
    (Figures.fig10 ~duration ~staleness_seconds:[ 2; 6; 10; 14; 18 ]
       ~set_sizes:[ 1; 2; 4 ] ~jobs ())

let summarize (o : Experiment.outcome) =
  let receivers =
    List.map
      (fun (r : Experiment.receiver_outcome) -> (r.changes, r.optimal))
      o.receivers
  in
  let dev =
    Metrics.Deviation.mean_relative_deviation ~receivers
      ~window:(Time.zero, duration)
  in
  let worst =
    Metrics.Stability.worst ~logs:(List.map fst receivers)
      ~window:(Time.zero, duration)
  in
  (dev, worst.changes)

(* Oracle-level subscriptions on Topology A (one receiver per branch at
   levels 4 and 2): layering shares enhancement layers on the common
   source link; simulcast ships one full replica per distinct quality. *)
let run_simulcast_comparison () =
  let shared_bytes ~layered =
    let sim = Engine.Sim.create () in
    let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
    let nw = Net.Network.create ~sim spec.Scenarios.Builders.topology in
    let router = Multicast.Router.create ~network:nw () in
    if layered then begin
      let session =
        Traffic.Session.create ~router ~source:0
          ~layering:Traffic.Layering.paper_default ~id:0
      in
      Traffic.Session.set_subscription_level session ~router ~node:4 ~level:4;
      Traffic.Session.set_subscription_level session ~router ~node:5 ~level:2;
      Engine.Sim.run_until sim (Time.of_sec 2);
      ignore
        (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
           ~rng:(Engine.Sim.rng sim ~label:"src") ())
    end
    else begin
      let sc =
        Traffic.Simulcast.create ~router ~source:0
          ~layering:Traffic.Layering.paper_default ~id:0
      in
      Traffic.Simulcast.select sc ~router ~node:4 ~stream:(Some 3);
      Traffic.Simulcast.select sc ~router ~node:5 ~stream:(Some 1);
      Engine.Sim.run_until sim (Time.of_sec 2);
      ignore
        (Traffic.Simulcast.start_sources ~network:nw sc
           ~rng:(Engine.Sim.rng sim ~label:"sc"))
    end;
    Engine.Sim.run_until sim (Time.of_sec 62);
    Net.Link.tx_bytes (Net.Network.link_on_iface nw ~node:0 ~iface:0)
  in
  let layered = shared_bytes ~layered:true in
  let simulcast = shared_bytes ~layered:false in
  Format.printf
    "layered %d B, simulcast %d B (x%.2f) — layering's bandwidth saving on \
     shared links@."
    layered simulcast
    (float_of_int simulcast /. float_of_int layered)

(* One long-lived TCP flow against one TopoSense session on a shared
   1 Mbps link: the paper expects the quasi-inelastic layered session to
   hold its layers while AIMD retreats. Also run the TCP flow alone and
   two TCP flows for reference. *)
let run_tcp_friendliness () =
  let base_topo () =
    let topo = Net.Topology.create () in
    ignore (Net.Topology.add_nodes topo 6);
    List.iter
      (fun (a, b, bw) ->
        Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:bw
          ~delay:(Time.span_of_ms 10) ~queue_limit:25 ())
      [
        (0, 2, 1e7);
        (1, 2, 1e7);
        (2, 3, Net.Topology.kbps 1000.0);
        (3, 4, 1e7);
        (3, 5, 1e7);
      ];
    topo
  in
  let horizon = Time.of_sec 300 in
  (* Reference: TCP alone. *)
  let alone =
    let sim = Engine.Sim.create () in
    let nw = Net.Network.create ~sim (base_topo ()) in
    let flow = Traffic.Tcp_flow.start ~network:nw ~src:1 ~dst:5 () in
    Engine.Sim.run_until sim horizon;
    Traffic.Tcp_flow.throughput_bps flow ~over:(Time.to_ns horizon)
  in
  (* TCP vs the TopoSense session. *)
  let sim = Engine.Sim.create () in
  let nw = Net.Network.create ~sim (base_topo ()) in
  let router = Multicast.Router.create ~network:nw () in
  let discovery = Discovery.Service.create ~sim ~router () in
  let session =
    Traffic.Session.create ~router ~source:0
      ~layering:Traffic.Layering.paper_default ~id:0
  in
  Discovery.Service.register_session discovery session;
  ignore
    (Traffic.Source.start ~network:nw ~session ~kind:Traffic.Source.Cbr
       ~rng:(Engine.Sim.rng sim ~label:"src") ());
  let params = Toposense.Params.default in
  let c = Toposense.Controller.create ~network:nw ~discovery ~params ~node:0 () in
  Toposense.Controller.add_session c session;
  Toposense.Controller.start c;
  let agent =
    Toposense.Receiver_agent.create ~network:nw ~router ~params ~node:4
      ~controller:0 ()
  in
  Toposense.Receiver_agent.subscribe agent ~session ~initial_level:1;
  Toposense.Receiver_agent.start agent;
  let flow = Traffic.Tcp_flow.start ~network:nw ~src:1 ~dst:5 () in
  Engine.Sim.run_until sim horizon;
  let tcp = Traffic.Tcp_flow.throughput_bps flow ~over:(Time.to_ns horizon) in
  let level = Toposense.Receiver_agent.level agent ~session:0 in
  Format.printf
    "TCP alone: %.0f kbps; against TopoSense: %.0f kbps while the session \
     holds %d layers (%.0f kbps) — the paper's admitted asymmetry@."
    (alone /. 1000.0) (tcp /. 1000.0) level
    (Traffic.Layering.cumulative_bps Traffic.Layering.paper_default
       ~level
    /. 1000.0)

let run_ablations () =
  header "Ablation: TopoSense vs RLM vs Oracle (Topology A, 4+4, VBR P=3)";
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:4 in
  List.iter
    (fun scheme ->
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:(Experiment.Vbr 3.0) ~scheme ~duration ())
      in
      Format.printf "%a: mean deviation %.3f, max changes %d@."
        Experiment.pp_scheme scheme dev changes)
    [ Experiment.Toposense; Experiment.Rlm; Experiment.Oracle ];
  header "Ablation: capacity re-estimation period (Topology A, 2+2, CBR)";
  List.iter
    (fun reset ->
      let params =
        { Toposense.Params.default with capacity_reset_intervals = reset }
      in
      let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:Experiment.Cbr
             ~scheme:Experiment.Toposense ~params ~duration ())
      in
      Format.printf
        "capacity reset every %2d intervals: deviation %.3f, max changes %d@."
        reset dev changes)
    [ 5; 15; 45 ];
  header "Ablation: group-leave latency (Topology A, 2+2, CBR)";
  List.iter
    (fun (label, leave_latency, expedited_leave) ->
      let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:Experiment.Cbr
             ~scheme:Experiment.Toposense ~leave_latency ~expedited_leave
             ~duration ())
      in
      Format.printf "%-22s deviation %.3f, max changes %d@." label dev changes)
    [
      ("expedited (Section V)", Time.span_of_ms 1, true);
      ("leave latency 0.5 s", Time.span_of_ms 500, false);
      ("leave latency 1 s", Time.span_of_sec 1, false);
      ("leave latency 3 s", Time.span_of_sec 3, false);
    ];
  header "Ablation: queue discipline on all links (Topology A, 2+2, VBR P=3)";
  List.iter
    (fun (label, f) ->
      let spec =
        Scenarios.Builders.with_discipline f (fun () ->
            Scenarios.Builders.topology_a ~receivers_per_set:2)
      in
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:(Experiment.Vbr 3.0)
             ~scheme:Experiment.Toposense ~duration ())
      in
      Format.printf "%-12s deviation %.3f, max changes %d@." label dev changes)
    [
      ("drop-tail", Scenarios.Builders.default_discipline);
      ( "RED",
        fun ~bandwidth_bps ->
          match Scenarios.Builders.default_discipline ~bandwidth_bps with
          | Net.Queue_discipline.Drop_tail { limit } ->
              Net.Queue_discipline.default_red ~limit
          | d -> d );
      ( "priority",
        fun ~bandwidth_bps ->
          match Scenarios.Builders.default_discipline ~bandwidth_bps with
          | Net.Queue_discipline.Drop_tail { limit } ->
              Net.Queue_discipline.Priority { limit }
          | d -> d );
    ];
  header "Tiered Internet (Fig. 2/3): global vs per-domain control, VBR P=3";
  List.iter
    (fun sessions ->
      let config = { Scenarios.Tiered.default_config with sessions } in
      let world = Scenarios.Tiered.generate ~config ~seed:11L () in
      List.iter
        (fun control ->
          let o = Scenarios.Tiered.run ~world ~control ~duration () in
          Format.printf
            "%d session(s), %-12s controllers %d, mean deviation %.3f@."
            sessions
            (match control with
            | Scenarios.Tiered.Global -> "global"
            | Scenarios.Tiered.Per_domain -> "per-domain"
            | Scenarios.Tiered.Federated -> "federated")
            o.controllers o.mean_deviation)
        [ Scenarios.Tiered.Global; Scenarios.Tiered.Per_domain ])
    [ 1; 2 ];
  header "Simulcast vs layering: bytes on the shared source link (60 s, oracle subscriptions)";
  run_simulcast_comparison ();
  header "Discovery: oracle service vs in-band probing (Topology A, 2+2, CBR)";
  List.iter
    (fun (label, probe_discovery) ->
      let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:Experiment.Cbr
             ~scheme:Experiment.Toposense ~probe_discovery ~duration ())
      in
      Format.printf "%-14s deviation %.3f, max changes %d@." label dev changes)
    [ ("oracle", false); ("probe-based", true) ];
  header "TCP friendliness (Section VI): one AIMD flow vs one TopoSense session, 1 Mbps";
  run_tcp_friendliness ();
  header "Churn: staggered joins + mid-run departures (Topology A, 4+4, CBR)";
  let churn = Scenarios.Churn.run ~duration () in
  Format.printf
    "%d/%d receivers reached their optimum, mean time-to-optimum %.1f s@."
    churn.reached churn.total churn.mean_reach_s;
  List.iter
    (fun (r : Scenarios.Churn.receiver_report) ->
      Format.printf
        "  n%-3d joined %3.0f s%s: optimum %d, reached in %s, %d disruptions@."
        r.node r.joined_at_s
        (match r.left_at_s with
        | Some s -> Printf.sprintf ", left %.0f s" s
        | None -> "")
        r.optimal
        (match r.reach_s with
        | Some s -> Printf.sprintf "%.0f s" s
        | None -> "never")
        r.disruptions)
    churn.receivers;
  header
    "Ablation: bursty vs sustained loss filter (Section V), Topology A, 2+2, \
     VBR P=6";
  List.iter
    (fun (label, require_sustained_loss) ->
      let params = { Toposense.Params.default with require_sustained_loss } in
      let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:(Experiment.Vbr 6.0)
             ~scheme:Experiment.Toposense ~params ~duration ())
      in
      Format.printf "%-22s deviation %.3f, max changes %d@." label dev changes)
    [ ("react to any loss", false); ("sustained loss only", true) ];
  header "Ablation: TopoSense interval size (Topology A, 2+2, VBR P=3)";
  List.iter
    (fun secs ->
      let params =
        { Toposense.Params.default with interval = Time.span_of_sec secs }
      in
      let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
      let dev, changes =
        summarize
          (Experiment.run ~spec ~traffic:(Experiment.Vbr 3.0)
             ~scheme:Experiment.Toposense ~params ~duration ())
      in
      Format.printf "interval %d s: deviation %.3f, max changes %d@." secs dev
        changes)
    [ 1; 2; 4; 8 ]

let () =
  Format.printf
    "TopoSense reproduction bench harness (%s mode: %.0f s per simulated \
     run)@."
    (if full then "full" else "quick")
    (Time.to_sec_f duration);
  run_table1 ();
  run_fig6 ();
  run_fig7 ();
  run_fig8 ();
  run_fig9 ();
  run_fig10 ();
  run_ablations ();
  Format.printf "@.done.@."
