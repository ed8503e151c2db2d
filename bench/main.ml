(* Benchmark and figure-regeneration harness.

   Two halves:

   1. Regenerates every table and figure of the paper's evaluation
      (Table I, Figs. 6-10) and prints the same rows/series the paper
      reports. Durations default to 600 simulated seconds per run so the
      whole harness finishes in a couple of minutes; set BENCH_FULL=1 for
      the paper's 1200 s.

   2. Bechamel micro-benchmarks — one Test.make per table/figure driver
      plus the core algorithm stages — so regressions in the simulator or
      the TopoSense stages show up as time-per-run changes. *)

module Time = Engine.Time
module Experiment = Scenarios.Experiment
module Figures = Scenarios.Figures

let full = Sys.getenv_opt "BENCH_FULL" <> None
let duration = Time.of_sec (if full then 1200 else 600)

(* --jobs N / BENCH_JOBS fans the figure sweeps and the trajectory rows
   across domains, clamped to the machine's cores. *)
let argv_value name =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
      Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let jobs =
  let requested =
    match argv_value "--jobs" with
    | Some s -> ( try int_of_string s with _ -> 1)
    | None -> (
        match Sys.getenv_opt "BENCH_JOBS" with
        | Some s -> ( try int_of_string s with _ -> 1)
        | None -> 1)
  in
  max 1 (min requested (Scenarios.Sweep.cores ()))

let header fmt = Format.printf "@.=== %s ===@." fmt

(* --perf re-runs one named trajectory row (default: the topoB hot
   path; pick another with --perf-row NAME) under [perf record -g]
   attached to this process, then renders [perf report --stdio] beside
   the data file. The capture is a separate run *after* the measured
   rows so sampling overhead never pollutes the recorded numbers, and
   it degrades to a note when the perf binary is absent (most
   containers ship without it). *)
let perf_requested = Array.exists (fun a -> a = "--perf") Sys.argv

let perf_row_name =
  Option.value ~default:"topoB-32-sessions-vbr" (argv_value "--perf-row")

(* ---------- figure regeneration ---------- *)

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

(* ---------- bench trajectory (BENCH_*.json) ---------- *)

(* Macro throughput numbers for the hot path, written to BENCH_pr10.json
   so successive PRs can compare events/sec and packets/sec on fixed
   scenarios (diff two files with bench/compare.exe). Runs alone (fast)
   with BENCH_SMOKE=1 or --trajectory. *)

type bench_row = {
  bname : string;
  sim_s : float;
  wall_s : float;
  events : int;
  packets : int;
  peak_heap : int;  (* backing-store high-water mark, tombstones included *)
  peak_live : int;  (* high-water mark of genuinely outstanding events *)
  minor_words : float;
  major_words : float;
  major_cols : int;
  extras : (string * float) list;
      (* scenario-specific counters appended verbatim to the JSON row
         (e.g. the churn-storm damage counters the CI gate bounds) *)
}

(* Allocation pressure of one run, from [Gc.quick_stat] deltas. Minor
   words are domain-local in OCaml 5, so a row measured on a worker
   domain still reports its own run; major-heap numbers are shared and
   get noisy under --jobs > 1. *)
type gc_delta = { minor_w : float; major_w : float; major_cols : int }

(* Best wall time of [repeat] identical runs: the scenarios are
   deterministic, so the minimum is the least-noisy estimate of the
   true cost on a shared machine. *)
let bench_repeat =
  match Sys.getenv_opt "BENCH_REPEAT" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 3)
  | None -> 3

let time_wall f =
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let w = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  ( r,
    w,
    {
      minor_w = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_w = g1.Gc.major_words -. g0.Gc.major_words;
      major_cols = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* GC numbers are reported from the same (best-wall) run, so the row is
   one coherent measurement rather than a min over mixed runs. *)
let time_wall_best f =
  let rec loop ((_, best_w, _) as best) n =
    if n = 0 then best
    else
      let (_, w, _) as run = time_wall f in
      loop (if w < best_w then run else best) (n - 1)
  in
  loop (time_wall f) (bench_repeat - 1)

let experiment_row ~name ~spec ~traffic ~sim_s () =
  let duration = Time.of_sec_f sim_s in
  let o, wall, gc =
    time_wall_best (fun () ->
        Experiment.run ~spec ~traffic ~scheme:Experiment.Toposense ~duration ())
  in
  {
    bname = name;
    sim_s;
    wall_s = wall;
    events = o.Experiment.events_dispatched;
    packets = o.Experiment.forwarded_packets;
    peak_heap = o.Experiment.peak_heap;
    peak_live = o.Experiment.peak_live;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras = [];
  }

(* Failure recovery under load: the link-flap scenario stresses the
   incremental-routing + tree-repair path alongside normal forwarding. *)
let fault_flap_row ~sim_s () =
  let o, wall, gc =
    time_wall_best (fun () ->
        Scenarios.Recovery.link_flap ~receivers_per_set:4
          ~duration:(Time.of_sec_f sim_s) ())
  in
  {
    bname = "fault-link-flap";
    sim_s;
    wall_s = wall;
    events = o.Scenarios.Recovery.events_dispatched;
    packets = o.Scenarios.Recovery.forwarded_packets;
    peak_heap = o.Scenarios.Recovery.peak_heap;
    peak_live = o.Scenarios.Recovery.peak_live;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras = [];
  }

(* Reliable control plane under partition: leases, retransmission timers
   and the receivers' RLM fallback all churn at once while the data
   plane keeps forwarding. *)
let fault_partition_row ~sim_s () =
  let o, wall, gc =
    time_wall_best (fun () ->
        Scenarios.Recovery.partition ~receivers_per_set:4
          ~duration:(Time.of_sec_f (Float.max sim_s 180.0))
          ())
  in
  {
    bname = "fault-partition";
    sim_s = Float.max sim_s 180.0;
    wall_s = wall;
    events = o.Scenarios.Recovery.events_dispatched;
    packets = o.Scenarios.Recovery.forwarded_packets;
    peak_heap = o.Scenarios.Recovery.peak_heap;
    peak_live = o.Scenarios.Recovery.peak_live;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras = [];
  }

(* Engine-only: thousands of periodic chains, most cancelled mid-run, on
   top of a standing population of far-future one-shot events that also
   get cancelled — the worst case for event-heap tombstones. *)
let engine_churn_row ~name ~sim_s () =
  let run () =
    let sim = Engine.Sim.create () in
    let horizon = Time.of_sec_f sim_s in
    let timers =
      Array.init 2_000 (fun i ->
          Engine.Sim.every sim
            ~period:(Time.span_of_ms (1 + (i mod 50)))
            ignore)
    in
    let far =
      Array.init 100_000 (fun i ->
          Engine.Sim.schedule_at sim
            (Time.add horizon (Time.span_of_ms (i + 1)))
            ignore)
    in
    ignore
      (Engine.Sim.schedule_at sim
         (Time.of_sec_f (sim_s /. 2.0))
         (fun () ->
           Array.iteri
             (fun i h -> if i mod 10 <> 0 then Engine.Sim.cancel sim h)
             timers;
           Array.iter (fun h -> Engine.Sim.cancel sim h) far));
    Engine.Sim.run_until sim horizon;
    sim
  in
  let sim, wall, gc = time_wall_best run in
  {
    bname = name;
    sim_s;
    wall_s = wall;
    events = Engine.Sim.events_dispatched sim;
    packets = 0;
    peak_heap = Engine.Sim.max_pending sim;
    peak_live = Engine.Sim.max_live_pending sim;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras = [];
  }

(* Churn storm at scale (PR 6): sustained link flaps + membership churn
   on a 259-node 6-ary tree, no data plane — the cost measured is pure
   incremental route & tree maintenance. The extras pin the
   damage-proportional counters; the CI gate bounds [recomputes] so the
   full-recompute-per-event path cannot silently return (it would cost
   [full_recompute_equiv], an order of magnitude more). The run aborts
   if the storm ends inconsistent, so the bench doubles as an
   at-scale correctness check. *)
let churn_storm_row ~sim_s () =
  let flaps = int_of_float (sim_s /. 5.0) in
  let o, wall, gc =
    time_wall_best (fun () ->
        let o =
          Scenarios.Recovery.churn_storm ~fanout:6 ~depth:3 ~flaps
            ~churners:32 ~duration:(Time.of_sec_f sim_s) ()
        in
        if not (o.Scenarios.Recovery.tables_consistent
               && o.Scenarios.Recovery.tree_consistent)
        then failwith "churn-storm: inconsistent after the storm";
        o)
  in
  {
    bname = "churn-storm";
    sim_s;
    wall_s = wall;
    events = o.Scenarios.Recovery.events_dispatched;
    packets = 0;
    peak_heap = o.Scenarios.Recovery.peak_heap;
    peak_live = o.Scenarios.Recovery.peak_live;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras =
      [
        ("recomputes", float_of_int o.Scenarios.Recovery.routing_recomputes);
        ("topology_events", float_of_int o.Scenarios.Recovery.topology_events);
        ( "full_recompute_equiv",
          float_of_int o.Scenarios.Recovery.full_recompute_equiv );
        ("repair_passes", float_of_int o.Scenarios.Recovery.repair_passes);
        ("edges_repaired", float_of_int o.Scenarios.Recovery.edges_repaired);
      ];
  }

(* Chaos storm (PR 8): a fixed fault schedule — leaf-controller outage
   long enough to trip the liveness lease, two node crashes, two flaps,
   a lossy control burst and a parent outage — on the federated
   transit-stub world. The deterministic schedule pins the failover
   counters (the CI gate bounds [failovers] so a monitor regression
   cannot silently mark healthy domains dead), and the run aborts unless
   every global invariant holds, so the bench doubles as an end-to-end
   failover correctness check. *)
let chaos_storm_row () =
  let storm_s = 60.0 and quiet_s = 30.0 in
  let schedule =
    Scenarios.Chaos.
      [
        Ctrl_crash { domain = 0; at_s = 10.0; dur_s = 12.0 };
        Crash { victim = 3; at_s = 15.0; dur_s = 12.0 };
        Flap { link = 17; at_s = 20.0; dur_s = 6.0 };
        Flap { link = 41; at_s = 28.0; dur_s = 6.0 };
        Lossy_burst { at_s = 34.0; dur_s = 8.0; drop = 0.4 };
        Crash { victim = 29; at_s = 38.0; dur_s = 8.0 };
        Parent_crash { at_s = 44.0; dur_s = 6.0 };
      ]
  in
  let world =
    Scenarios.Chaos.Transit_stub
      {
        transits = 3;
        stubs_per_transit = 3;
        receivers_per_stub = 50;
        active_domains = 4;
        active_per_domain = 3;
      }
  in
  let o, wall, gc =
    time_wall_best (fun () ->
        let o =
          Scenarios.Chaos.run ~world ~schedule ~storm_s ~quiet_s ~seed:42L ()
        in
        if not (Scenarios.Chaos.ok o) then
          failwith
            ("chaos-storm: "
            ^ String.concat "; " o.Scenarios.Chaos.violations);
        o)
  in
  {
    bname = "chaos-storm";
    sim_s = storm_s +. quiet_s;
    wall_s = wall;
    events = o.Scenarios.Chaos.events_dispatched;
    packets = 0;
    peak_heap = o.Scenarios.Chaos.peak_heap;
    peak_live = o.Scenarios.Chaos.peak_live;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras =
      [
        ("failovers", float_of_int o.Scenarios.Chaos.failovers);
        ("rejoins", float_of_int o.Scenarios.Chaos.rejoins);
        ( "rehomed_prescriptions",
          float_of_int o.Scenarios.Chaos.rehomed_prescriptions );
        ("crash_drops", float_of_int o.Scenarios.Chaos.crash_drops);
        ("evictions", float_of_int o.Scenarios.Chaos.evictions);
        ("readmissions", float_of_int o.Scenarios.Chaos.readmissions);
        ("recomputes", float_of_int o.Scenarios.Chaos.routing_recomputes);
        ("repair_passes", float_of_int o.Scenarios.Chaos.repair_passes);
        ("edges_repaired", float_of_int o.Scenarios.Chaos.edges_repaired);
      ];
  }

(* Scaled transit-stub worlds (PR 7): the row's headline numbers are
   peak RSS and the materialized-column count, pinning the lazy-routing
   and O(domains)-federation state claims at 10k and 100k receivers.
   One run, not best-of-N: VmHWM is a process-wide high-water mark, so
   repeats measure nothing new and these rows must run first (10k before
   100k) for their RSS figures to mean what they say. *)
let scale_row ~name ~config =
  (* Build/run seam ([Scale.prepare]/[execute]): world construction is
     timed into the setup_seconds extra, so wall_seconds — and with it
     events_per_sec and the alloc_per_event gate — covers only the
     simulation itself. *)
  let p, setup_w, _ =
    time_wall (fun () -> Scenarios.Scale.prepare ~config ())
  in
  let o, wall, gc = time_wall (fun () -> Scenarios.Scale.execute p) in
  {
    bname = name;
    sim_s = Time.to_sec_f config.Scenarios.Scale.duration;
    wall_s = wall;
    events = o.Scenarios.Scale.events_dispatched;
    packets = 0;
    peak_heap = 0;
    peak_live = 0;
    minor_words = gc.minor_w;
    major_words = gc.major_w;
    major_cols = gc.major_cols;
    extras =
      [
        ("setup_seconds", setup_w);
        ("receivers", float_of_int o.Scenarios.Scale.receivers);
        ("domains", float_of_int o.Scenarios.Scale.domains);
        ("peak_rss_kb", float_of_int o.Scenarios.Scale.peak_rss_kb);
        ( "materialized_columns",
          float_of_int o.Scenarios.Scale.materialized_columns );
        ("column_bound", float_of_int o.Scenarios.Scale.column_bound);
        ( "parent_state_entries",
          float_of_int o.Scenarios.Scale.parent_state_entries );
        ( "controller_state_entries",
          float_of_int o.Scenarios.Scale.controller_state_entries );
        ( "summaries_received",
          float_of_int o.Scenarios.Scale.summaries_received );
      ];
  }

(* Derived allocation-pressure metric: total words allocated (minor +
   major-only allocations) per event dispatched. The hot-path work of
   this PR shows up here: a steady-state event that allocates nothing
   drives the quotient toward the per-packet floor. *)
let alloc_per_event r =
  if r.events = 0 then 0.0
  else (r.minor_words +. r.major_words) /. float_of_int r.events

let emit_bench_json ~path rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"pr10\",\n";
  Printf.bprintf buf "  \"mode\": \"%s\",\n"
    (if full then "full" else "quick");
  Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
  Buffer.add_string buf "  \"scenarios\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"name\": \"%s\", \"sim_seconds\": %.1f, \"wall_seconds\": \
         %.3f, \"events\": %d, \"events_per_sec\": %.0f, \
         \"packets_forwarded\": %d, \"packets_per_sec\": %.0f, \
         \"peak_heap\": %d, \"peak_live\": %d, \"minor_words\": %.0f, \
         \"major_words\": %.0f, \"major_collections\": %d, \
         \"alloc_per_event\": %.2f"
        r.bname r.sim_s r.wall_s r.events
        (float_of_int r.events /. r.wall_s)
        r.packets
        (float_of_int r.packets /. r.wall_s)
        r.peak_heap r.peak_live r.minor_words r.major_words r.major_cols
        (alloc_per_event r);
      List.iter
        (fun (k, v) ->
          (* Counters are integral; timing extras (setup_seconds)
             need their fraction. *)
          if Float.is_integer v then Printf.bprintf buf ", \"%s\": %.0f" k v
          else Printf.bprintf buf ", \"%s\": %.3f" k v)
        r.extras;
      Printf.bprintf buf "}%s\n" (if i = n - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* One extra, unmeasured run of the chosen row with [perf record]
   attached to this pid. SIGINT (perf's documented stop signal) flushes
   the ring buffer; the text report lands beside perf.data so CI can
   archive it without perf installed on the inspecting side. *)
let run_perf_capture named_thunks =
  match List.assoc_opt perf_row_name named_thunks with
  | None ->
      Format.printf "--perf-row %S: no such trajectory row (have: %s)@."
        perf_row_name
        (String.concat ", " (List.map fst named_thunks))
  | Some thunk ->
      if Sys.command "perf --version > /dev/null 2>&1" <> 0 then
        Format.printf
          "perf binary not found on PATH; skipping profile capture@."
      else begin
        header (Printf.sprintf "perf profile: %s" perf_row_name);
        let perf_pid =
          Unix.create_process "perf"
            [|
              "perf"; "record"; "-g"; "--freq"; "997"; "-o"; "perf.data";
              "-p"; string_of_int (Unix.getpid ());
            |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        (* Let perf finish attaching before the measured work starts. *)
        Unix.sleepf 0.2;
        ignore (thunk ());
        Unix.kill perf_pid Sys.sigint;
        ignore (Unix.waitpid [] perf_pid);
        if
          Sys.command
            "perf report --stdio -i perf.data > perf_report.txt 2> /dev/null"
          = 0
        then Format.printf "wrote perf.data and perf_report.txt@."
        else
          Format.printf
            "perf record finished but the report failed; perf.data kept@."
      end

let run_trajectory () =
  header "Bench trajectory (events/sec, packets/sec per scenario)";
  let sim_s = if full then 600.0 else 300.0 in
  (* Topology specs read Builders.with_discipline's process-wide
     discipline, so every spec is built here in the main domain; the
     sweep then only runs self-contained simulations. *)
  let spec_topo_b = Scenarios.Builders.topology_b ~session_count:32 in
  let spec_topo_a16 = Scenarios.Builders.topology_a ~receivers_per_set:16 in
  let spec_priority =
    Scenarios.Builders.with_discipline
      (fun ~bandwidth_bps ->
        match Scenarios.Builders.default_discipline ~bandwidth_bps with
        | Net.Queue_discipline.Drop_tail { limit } ->
            Net.Queue_discipline.Priority { limit }
        | d -> d)
      (fun () -> Scenarios.Builders.topology_a ~receivers_per_set:4)
  in
  let spec_red =
    Scenarios.Builders.with_discipline
      (fun ~bandwidth_bps ->
        match Scenarios.Builders.default_discipline ~bandwidth_bps with
        | Net.Queue_discipline.Drop_tail { limit } ->
            Net.Queue_discipline.default_red ~limit
        | d -> d)
      (fun () -> Scenarios.Builders.topology_a ~receivers_per_set:4)
  in
  (* Named so --perf-row can pick one out; the names double as the JSON
     row names. *)
  let row_thunks =
    [
      ( "topoB-32-sessions-vbr",
        fun () ->
          experiment_row ~name:"topoB-32-sessions-vbr" ~spec:spec_topo_b
            ~traffic:(Experiment.Vbr 3.0) ~sim_s () );
      ( "topoA-16-receivers-cbr",
        fun () ->
          experiment_row ~name:"topoA-16-receivers-cbr" ~spec:spec_topo_a16
            ~traffic:Experiment.Cbr ~sim_s () );
      ( "priority-overload",
        fun () ->
          experiment_row ~name:"priority-overload" ~spec:spec_priority
            ~traffic:(Experiment.Vbr 6.0) ~sim_s () );
      ( "red-burst",
        fun () ->
          experiment_row ~name:"red-burst" ~spec:spec_red
            ~traffic:(Experiment.Vbr 6.0) ~sim_s () );
      ("fault-link-flap", fun () -> fault_flap_row ~sim_s ());
      ("fault-partition", fun () -> fault_partition_row ~sim_s ());
      ("churn-storm", fun () -> churn_storm_row ~sim_s ());
      ("chaos-storm", fun () -> chaos_storm_row ());
      ( "engine-cancel-churn",
        fun () ->
          engine_churn_row ~name:"engine-cancel-churn" ~sim_s:(sim_s /. 5.0) ()
      );
    ]
  in
  (* Scale rows run serially, before everything else in this trajectory:
     VmHWM only ever grows, so the 10k row's RSS (the CI gate) must be
     recorded before the 100k world is built. *)
  let scale_rows =
    let d10, d100 = if full then (10.0, 5.0) else (5.0, 5.0) in
    let with_duration config d =
      { config with Scenarios.Scale.duration = Time.of_sec_f d }
    in
    (* Sequenced with lets: list-literal elements evaluate right to
       left, which would run the 100k world first and pollute the 10k
       row's VmHWM reading. *)
    let r10k =
      scale_row ~name:"scale-10k"
        ~config:(with_duration Scenarios.Scale.config_10k d10)
    in
    let r100k =
      scale_row ~name:"scale-100k"
        ~config:(with_duration Scenarios.Scale.config_100k d100)
    in
    [ r10k; r100k ]
  in
  let rows =
    scale_rows
    @ Scenarios.Sweep.run ~jobs (fun (_, thunk) -> thunk ()) row_thunks
  in
  List.iter
    (fun r ->
      Format.printf
        "%-28s %6.1f sim-s in %6.2f s — %9.0f events/s, %8.0f packets/s, \
         peak heap %d, live %d, GC %.1f/%.1f Mw, %d major, %.1f w/event@."
        r.bname r.sim_s r.wall_s
        (float_of_int r.events /. r.wall_s)
        (float_of_int r.packets /. r.wall_s)
        r.peak_heap r.peak_live
        (r.minor_words /. 1e6)
        (r.major_words /. 1e6)
        r.major_cols (alloc_per_event r))
    rows;
  let path =
    Option.value ~default:"BENCH_pr10.json" (Sys.getenv_opt "BENCH_OUT")
  in
  emit_bench_json ~path rows;
  Format.printf "wrote %s@." path;
  if perf_requested then run_perf_capture row_thunks

(* ---------- bechamel micro-benchmarks ---------- *)

let small_sim_run () =
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:1 in
  ignore
    (Experiment.run ~spec ~traffic:Experiment.Cbr ~scheme:Experiment.Toposense
       ~duration:(Time.of_sec 20) ())

let heap_churn () =
  let h = Engine.Heap.create ~cmp:Int.compare in
  for i = 0 to 999 do
    Engine.Heap.push h ((i * 7919) mod 1000)
  done;
  while not (Engine.Heap.is_empty h) do
    ignore (Engine.Heap.pop h)
  done

let event_dispatch () =
  let sim = Engine.Sim.create () in
  for i = 1 to 1000 do
    ignore (Engine.Sim.schedule_at sim (Time.of_us i) ignore)
  done;
  Engine.Sim.run_until sim (Time.of_sec 1)

let routing_compute () =
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:8 in
  ignore (Net.Routing.compute spec.topology)

let decision_sweep () =
  List.iter
    (fun kind ->
      List.iter
        (fun bw ->
          for h = 0 to 7 do
            ignore (Toposense.Decision.lookup ~kind ~history:h ~bw)
          done)
        [
          Toposense.Decision.Lesser;
          Toposense.Decision.Equal;
          Toposense.Decision.Greater;
        ])
    [ Toposense.Decision.Leaf; Toposense.Decision.Internal ]

let congestion_stage =
  let snap =
    {
      Discovery.Snapshot.session = 0;
      taken_at = Time.zero;
      source = 0;
      edges =
        List.concat_map
          (fun b ->
            { Discovery.Snapshot.parent = 0; child = b; layers = [ 0 ] }
            :: List.map
                 (fun l ->
                   {
                     Discovery.Snapshot.parent = b;
                     child = (10 * b) + l;
                     layers = [ 0 ];
                   })
                 [ 1; 2; 3; 4 ])
          [ 1; 2; 3 ];
      members = [];
    }
  in
  let tree = Toposense.Tree.of_snapshot snap in
  fun () ->
    ignore
      (Toposense.Congestion.compute ~params:Toposense.Params.default ~tree
         ~measure:(fun node ->
           Some (float_of_int (node mod 7) /. 20.0, node * 10)))

let algorithm_step =
  let algo =
    Toposense.Algorithm.create ~params:Toposense.Params.default
      ~rng:(Engine.Prng.create ~seed:5L)
  in
  let tree =
    Toposense.Tree.of_snapshot
      {
        Discovery.Snapshot.session = 0;
        taken_at = Time.zero;
        source = 0;
        edges =
          [
            { Discovery.Snapshot.parent = 0; child = 1; layers = [ 0 ] };
            { Discovery.Snapshot.parent = 1; child = 2; layers = [ 0 ] };
            { Discovery.Snapshot.parent = 1; child = 3; layers = [ 0 ] };
          ];
        members = [ (2, 2); (3, 3) ];
      }
  in
  let counter = ref 0 in
  fun () ->
    incr counter;
    ignore
      (Toposense.Algorithm.step algo
         ~now:(Time.of_sec (2 * !counter))
         [
           {
             Toposense.Algorithm.id = 0;
             layering = Traffic.Layering.paper_default;
             tree;
             measures = [ (2, (0.0, 24_000)); (3, (0.0, 56_000)) ];
             levels = [ (2, 2); (3, 3) ];
             may_add = (fun _ -> true);
             frozen = (fun _ -> false);
           };
         ])

let deviation_metric =
  let changes =
    List.init 100 (fun i -> (Time.of_sec (i * 10), 1 + (i mod 5)))
  in
  fun () ->
    ignore
      (Metrics.Deviation.relative_deviation ~changes ~optimal:4
         ~window:(Time.zero, Time.of_sec 1000))

let tests =
  [
    Bechamel.Test.make ~name:"heap: 1k push+pop" (Bechamel.Staged.stage heap_churn);
    Bechamel.Test.make ~name:"sim: 1k events" (Bechamel.Staged.stage event_dispatch);
    Bechamel.Test.make ~name:"routing: topology A (20 nodes)"
      (Bechamel.Staged.stage routing_compute);
    Bechamel.Test.make ~name:"table1: full decision sweep" (Bechamel.Staged.stage decision_sweep);
    Bechamel.Test.make ~name:"stage1: congestion (16-node tree)"
      (Bechamel.Staged.stage congestion_stage);
    Bechamel.Test.make ~name:"stages1-5: Algorithm.step" (Bechamel.Staged.stage algorithm_step);
    Bechamel.Test.make ~name:"metric: relative deviation" (Bechamel.Staged.stage deviation_metric);
    Bechamel.Test.make ~name:"e2e: 20 s Topology A sim" (Bechamel.Staged.stage small_sim_run);
  ]

let benchmark () =
  header "Bechamel micro-benchmarks (time per run)";
  let instance = Bechamel.Toolkit.Instance.monotonic_clock in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5)
      ~stabilize:false ()
  in
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Bechamel.Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun tst ->
          let raw = Bechamel.Benchmark.run cfg [ instance ] tst in
          let est = Bechamel.Analyze.one ols instance raw in
          let ns =
            match Bechamel.Analyze.OLS.estimates est with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          Format.printf "%-36s %12.1f ns/run@." (Bechamel.Test.Elt.name tst) ns)
        (Bechamel.Test.elements test))
    tests

let trajectory_only =
  Sys.getenv_opt "BENCH_SMOKE" <> None
  || Array.exists (fun a -> a = "--trajectory") Sys.argv

let () =
  Format.printf
    "TopoSense reproduction bench harness (%s mode: %.0f s per simulated \
     run)@."
    (if full then "full" else "quick")
    (Time.to_sec_f duration);
  if trajectory_only then run_trajectory ()
  else begin
    run_table1 ();
    run_fig6 ();
    run_fig7 ();
    run_fig8 ();
    run_fig9 ();
    run_fig10 ();
    run_ablations ();
    benchmark ();
    run_trajectory ()
  end;
  Format.printf "@.done.@."
