(* Every metric the suite reports, with its unit and which direction is
   better. BENCHMARK.json at the repository root lists the same names
   (the smoke test holds the two together) and adds the end-to-end
   regression bounds. *)

type better = Lower | Higher

(* Host time and memory of the timed children, and the share of checks
   that passed (a ratio that is 1 on a correct program, so it is never
   0). *)
let end_to_end =
  [
    ("wall_s", "s", Lower);
    ("setup_s", "s", Lower);
    ("run_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("check_pass_ratio", "ratio", Higher);
  ]

(* From the traced child. *)
let traced =
  List.concat_map
    (fun layer ->
      [ (layer ^ ".self_ms", "ms", Lower); (layer ^ ".incl_ms", "ms", Lower) ])
    (Array.to_list Profile.layers)
  @ [
      ("gc.minor_ms", "ms", Lower);
      ("gc.major_ms", "ms", Lower);
      ("trace.samples", "count", Higher);
      ("trace.coverage", "ratio", Higher);
      ("trace.overhead_pct", "%", Lower);
    ]

(* Counts read from the timed children through public accessors. They
   repeat exactly run to run, except allocated words (a few dozen in
   10^8) and ns_per_event, the one timing among them. A workload that
   does not expose a count reports 0 for it. Simulated-outcome counts point
   [Higher] when they count delivered work and [Lower] when they count
   damage or state; they belong to the digest and should not move at
   all. *)
let counts =
  [
    ("engine.events", "count", Lower);
    ("engine.peak_pending", "count", Lower);
    ("engine.peak_live", "count", Lower);
    ("engine.ns_per_event", "ns", Lower);
    ("gc.words_per_event", "words", Lower);
    ("gc.minor_words", "words", Lower);
    ("gc.major_words", "words", Lower);
    ("gc.major_collections", "count", Lower);
    ("net.packets_forwarded", "count", Higher);
    ("net.routing_recomputes", "count", Lower);
    ("net.materialized_columns", "count", Lower);
    ("net.crash_drops", "count", Lower);
    ("multicast.repair_passes", "count", Lower);
    ("multicast.edges_repaired", "count", Lower);
    ("toposense.reports_received", "count", Higher);
    ("toposense.suggestions_sent", "count", Higher);
    ("toposense.controller_state_entries", "count", Lower);
    ("toposense.evictions", "count", Lower);
    ("toposense.readmissions", "count", Higher);
    ("federation.summaries_received", "count", Higher);
    ("federation.parent_state_entries", "count", Lower);
    ("federation.failovers", "count", Lower);
    ("federation.rejoins", "count", Higher);
    ("federation.rehomed_prescriptions", "count", Lower);
  ]

let per_layer = traced @ counts
let all = end_to_end @ per_layer
let name (n, _, _) = n

let unit_of name =
  List.find_map (fun (n, u, _) -> if n = name then Some u else None) all

let better_of name =
  List.find_map (fun (n, _, b) -> if n = name then Some b else None) all

let from_timed_runs name = List.exists (fun (n, _, _) -> n = name) counts
