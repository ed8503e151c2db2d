(* Command-line driver for the TopoSense reproduction.

   Subcommands mirror the paper's evaluation artefacts:

     toposense_sim fig6 | fig7 | fig8 | fig9 | fig10 | table1
     toposense_sim ablations --duration 600
     toposense_sim run --topology a --receivers 4 --traffic vbr3 \
                        --scheme toposense --duration 600

   All runs are deterministic for a given --seed. *)

module Time = Engine.Time
module Experiment = Scenarios.Experiment
module Figures = Scenarios.Figures

open Cmdliner

(* ---------- shared options ---------- *)

(* Sizes, counts, durations and times come from the command line, so an
   out-of-range one is a usage error naming the flag, not a crash inside
   a builder or a value silently replaced by another. *)
let int_conv ~min ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int_conv = int_conv ~min:1 ~what:"positive"
let nonneg_int_conv = int_conv ~min:0 ~what:"non-negative"

(* Whole seconds become integer nanoseconds ({!Time.of_sec}), so a
   seconds flag must also fit the clock; past it the run would die on an
   exception that names no flag. *)
let whole_seconds_conv ~min ~what =
  let parse s =
    Result.bind (Arg.conv_parser (int_conv ~min ~what) s) (fun n ->
        match Time.span_of_sec n with
        | _ -> Ok n
        | exception Invalid_argument _ ->
            Error (`Msg (Printf.sprintf "seconds out of range, got %S" s)))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_seconds_conv = whole_seconds_conv ~min:1 ~what:"positive"
let nonneg_seconds_conv = whole_seconds_conv ~min:0 ~what:"non-negative"

let parse_finite s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> Ok x
  | _ -> Error (`Msg (Printf.sprintf "expected a finite number, got %S" s))

let finite_float_conv = Arg.conv (parse_finite, Format.pp_print_float)

(* Seconds become integer nanoseconds ({!Time.of_sec_f}), so a seconds
   flag must also fit that range, or the run would go on at wrapped
   instants. *)
let seconds_conv =
  let parse s =
    Result.bind (parse_finite s) (fun x ->
        match Time.span_of_sec_f (Float.abs x) with
        | _ -> Ok x
        | exception Invalid_argument _ ->
            Error (`Msg (Printf.sprintf "seconds out of range, got %S" s)))
  in
  Arg.conv (parse, Format.pp_print_float)

let duration_term =
  let doc = "Simulated duration in seconds." in
  Arg.(
    value
    & opt pos_seconds_conv 1200
    & info [ "duration" ] ~docv:"SECONDS" ~doc)

let seed_term =
  let doc = "PRNG seed; runs are deterministic per seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let traffic_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "cbr" -> Ok Experiment.Cbr
    | s when String.length s > 3 && String.sub s 0 3 = "vbr" -> (
        match float_of_string_opt (String.sub s 3 (String.length s - 3)) with
        | Some p when Float.is_finite p && p >= 1.0 -> Ok (Experiment.Vbr p)
        | _ -> Error (`Msg "expected vbr<P>, e.g. vbr3"))
    | _ -> Error (`Msg "expected cbr or vbr<P>")
  in
  let print ppf t = Experiment.pp_traffic ppf t in
  Arg.conv (parse, print)

let traffic_term =
  let doc = "Traffic model: cbr, vbr3, vbr6, ..." in
  Arg.(
    value
    & opt traffic_conv (Experiment.Vbr 3.0)
    & info [ "traffic" ] ~docv:"MODEL" ~doc)

let scheme_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "toposense" -> Ok Experiment.Toposense
    | "rlm" -> Ok Experiment.Rlm
    | "oracle" -> Ok Experiment.Oracle
    | _ -> Error (`Msg "expected toposense, rlm or oracle")
  in
  Arg.conv (parse, Experiment.pp_scheme)

let scheme_term =
  let doc = "Control scheme: toposense, rlm or oracle." in
  Arg.(
    value
    & opt scheme_conv Experiment.Toposense
    & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let sizes_term ~default ~name ~doc =
  Arg.(
    value
    & opt (list pos_int_conv) default
    & info [ name ] ~docv:"N,N,..." ~doc)

(* Figure sweeps fan their independent cells across domains; the count
   is clamped to what the machine can actually run in parallel. *)
let jobs_term =
  let doc =
    "Run up to $(docv) sweep cells in parallel domains (clamped to the \
     machine's cores). Results are identical for any value."
  in
  Arg.(value & opt pos_int_conv 1 & info [ "jobs" ] ~docv:"N" ~doc)

let clamp_jobs n = min n (Scenarios.Sweep.cores ())

let print_rows pp rows =
  List.iter (fun r -> Format.printf "%a@." pp r) rows;
  `Ok ()

(* ---------- figure commands ---------- *)

let fig6_cmd =
  let run duration seed jobs set_sizes =
    Figures.fig6 ~duration:(Time.of_sec duration) ~set_sizes
      ~seed:(Int64.of_int seed) ~jobs:(clamp_jobs jobs) ()
    |> print_rows Figures.pp_stability_row
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Stability in Topology A (paper Fig. 6).")
    Term.(
      ret
        (const run $ duration_term $ seed_term $ jobs_term
        $ sizes_term ~default:[ 1; 2; 4; 8; 16 ] ~name:"sizes"
            ~doc:"Receivers per set."))

let fig7_cmd =
  let run duration seed jobs session_counts =
    Figures.fig7 ~duration:(Time.of_sec duration) ~session_counts
      ~seed:(Int64.of_int seed) ~jobs:(clamp_jobs jobs) ()
    |> print_rows Figures.pp_stability_row
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Stability in Topology B (paper Fig. 7).")
    Term.(
      ret
        (const run $ duration_term $ seed_term $ jobs_term
        $ sizes_term ~default:[ 1; 2; 4; 8; 16 ] ~name:"sessions"
            ~doc:"Competing session counts."))

let runs_term =
  let doc = "Average each row over this many independent seeds." in
  Arg.(value & opt pos_int_conv 1 & info [ "runs" ] ~docv:"N" ~doc)

let seeds_of ~seed ~runs = List.init runs (fun i -> Int64.of_int (seed + i))

let fig8_cmd =
  let run duration seed jobs runs session_counts =
    Figures.fig8 ~duration:(Time.of_sec duration) ~session_counts
      ~seeds:(seeds_of ~seed ~runs) ~jobs:(clamp_jobs jobs) ()
    |> print_rows Figures.pp_fairness_row
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Inter-session fairness in Topology B (paper Fig. 8).")
    Term.(
      ret
        (const run $ duration_term $ seed_term $ jobs_term
        $ runs_term
        $ sizes_term ~default:[ 1; 2; 4; 8; 16 ] ~name:"sessions"
            ~doc:"Competing session counts."))

let fig9_cmd =
  let run duration seed lo hi =
    if lo > hi then `Error (true, "--from must not be after --to")
    else begin
      Figures.fig9 ~duration:(Time.of_sec duration)
        ~window:(float_of_int lo, float_of_int hi)
        ~seed:(Int64.of_int seed) ()
      |> List.iter (fun (session, points) ->
             Format.printf "# session %d@." session;
             List.iter
               (fun (p : Figures.series_point) ->
                 Format.printf "%.0f %d %.3f@." p.at_s p.level p.loss)
               points);
      `Ok ()
    end
  in
  let lo =
    Arg.(
      value & opt nonneg_int_conv 300
      & info [ "from" ] ~docv:"S" ~doc:"Window start (s).")
  in
  let hi =
    Arg.(
      value & opt nonneg_int_conv 360
      & info [ "to" ] ~docv:"S" ~doc:"Window end (s).")
  in
  Cmd.v
    (Cmd.info "fig9"
       ~doc:
         "Layer subscription and loss history for 4 competing VBR sessions \
          (paper Fig. 9). Gnuplot-friendly: time level loss.")
    Term.(ret (const run $ duration_term $ seed_term $ lo $ hi))

let fig10_cmd =
  let run duration seed jobs runs staleness set_sizes =
    Figures.fig10 ~duration:(Time.of_sec duration)
      ~staleness_seconds:staleness ~set_sizes
      ~seeds:(seeds_of ~seed ~runs) ~jobs:(clamp_jobs jobs) ()
    |> print_rows Figures.pp_staleness_row
  in
  Cmd.v
    (Cmd.info "fig10"
       ~doc:"Impact of stale topology information (paper Fig. 10).")
    Term.(
      ret
        (const run $ duration_term $ seed_term $ jobs_term
        $ runs_term
        $ Arg.(
            value
            & opt (list nonneg_seconds_conv) [ 2; 6; 10; 14; 18 ]
            & info [ "staleness" ] ~docv:"S,S,..."
                ~doc:"Staleness values in seconds.")
        $ sizes_term ~default:[ 1; 2; 4 ] ~name:"sizes"
            ~doc:"Receivers per set."))

let table1_cmd =
  let run () = Figures.table1 () |> print_rows Figures.pp_table1_row in
  Cmd.v
    (Cmd.info "table1" ~doc:"Dump the Table I decision table, fully enumerated.")
    Term.(ret (const run $ const ()))

let ablations_cmd =
  let run duration = Ablations.run ~duration:(Time.of_sec duration) in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Questions the paper raises beyond its figures: TopoSense vs RLM \
          vs oracle, capacity re-estimation period, leave latency, queue \
          discipline, tiered control, simulcast, in-band discovery, TCP \
          friendliness, bursty loss and interval size.")
    Term.(const run $ duration_term)

(* ---------- free-form run ---------- *)

let run_cmd =
  let topology_conv =
    Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "a" -> Ok `A
          | "b" -> Ok `B
          | "fig1" -> Ok `Fig1
          | _ -> Error (`Msg "expected a, b or fig1")),
        fun ppf t ->
          Format.pp_print_string ppf
            (match t with `A -> "a" | `B -> "b" | `Fig1 -> "fig1") )
  in
  let topology_term =
    Arg.(
      value & opt topology_conv `A
      & info [ "topology" ] ~docv:"a|b|fig1" ~doc:"Which paper topology.")
  in
  let receivers_term =
    Arg.(
      value & opt int 2
      & info [ "receivers" ] ~docv:"N"
          ~doc:"Receivers per set (topology a) / sessions (topology b).")
  in
  let staleness_term =
    Arg.(
      value & opt nonneg_seconds_conv 0
      & info [ "staleness" ] ~docv:"S" ~doc:"Topology staleness in seconds.")
  in
  let run duration seed traffic scheme topology receivers staleness =
    (* fig1 is a fixed topology that ignores --receivers. *)
    if receivers < 1 && topology <> `Fig1 then
      `Error (true, "--receivers must be positive for topologies a and b")
    else begin
      let spec =
        match topology with
        | `A -> Scenarios.Builders.topology_a ~receivers_per_set:receivers
        | `B -> Scenarios.Builders.topology_b ~session_count:receivers
        | `Fig1 -> Scenarios.Builders.figure1 ()
      in
      let params =
        { Toposense.Params.default with staleness = Time.span_of_sec staleness }
      in
      let duration = Time.of_sec duration in
      let o =
        Experiment.run ~spec ~traffic ~scheme ~params ~seed:(Int64.of_int seed)
          ~duration ()
      in
      Format.printf
        "%a on topology %s: %d receivers, %d events, %d reports, %d \
         suggestions@."
        Experiment.pp_scheme scheme
        (match topology with `A -> "A" | `B -> "B" | `Fig1 -> "Fig.1")
        (List.length o.receivers)
        o.events_dispatched o.reports_received o.suggestions_sent;
      List.iter
        (fun (r : Experiment.receiver_outcome) ->
          let dev =
            Metrics.Deviation.relative_deviation ~changes:r.changes
              ~optimal:r.optimal ~window:(Time.zero, duration)
          in
          let st =
            Metrics.Stability.summarize ~changes:r.changes
              ~window:(Time.zero, duration)
          in
          Format.printf
            "  session %d receiver n%-3d optimal %d final %d deviation %.3f \
             changes %d (gap %.0f s)@."
            r.session r.node r.optimal r.final_level dev st.changes
            st.mean_gap_s)
        o.receivers;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one simulation and summarize every receiver.")
    Term.(
      ret
        (const run $ duration_term $ seed_term $ traffic_term $ scheme_term
       $ topology_term $ receivers_term $ staleness_term))

let tiered_cmd =
  let run duration seed regions =
    let config =
      { Scenarios.Tiered.default_config with regions }
    in
    let world =
      Scenarios.Tiered.generate ~config ~seed:(Int64.of_int seed) ()
    in
    List.iter
      (fun control ->
        let o =
          Scenarios.Tiered.run ~world ~control
            ~duration:(Time.of_sec duration) ~seed:(Int64.of_int seed) ()
        in
        Format.printf "%-12s controllers %d, mean deviation %.3f@."
          (Scenarios.Tiered.control_name control)
          o.controllers o.mean_deviation;
        List.iter
          (fun (r : Scenarios.Tiered.receiver_outcome) ->
            Format.printf "  domain %d n%-3d optimal %d final %d dev %.3f@."
              r.domain r.node r.optimal r.final_level r.deviation)
          o.receivers)
      [ Scenarios.Tiered.Per_domain; Scenarios.Tiered.Global ];
    `Ok ()
  in
  let regions =
    Arg.(
      value & opt pos_int_conv 3
      & info [ "regions" ] ~docv:"N" ~doc:"Regional domains.")
  in
  Cmd.v
    (Cmd.info "tiered"
       ~doc:
         "Tiered Internet (paper Figs. 2-3): per-domain vs global control on \
          a generated hierarchy.")
    Term.(ret (const run $ duration_term $ seed_term $ regions))

let churn_cmd =
  let run duration seed receivers gap =
    let o =
      Scenarios.Churn.run ~receivers_per_set:receivers
        ~join_gap_s:(float_of_int gap) ~duration:(Time.of_sec duration)
        ~seed:(Int64.of_int seed) ()
    in
    Format.printf "%d/%d receivers reached their optimum%s@." o.reached
      o.total
      (match o.mean_reach_s with
      | Some s -> Printf.sprintf "; mean time-to-optimum %.1f s" s
      | None -> "");
    List.iter
      (fun (r : Scenarios.Churn.receiver_report) ->
        Format.printf
          "  n%-3d joined %.0f s%s optimum %d reached %s disruptions %d \
           final %d@."
          r.node r.joined_at_s
          (match r.left_at_s with
          | Some s -> Printf.sprintf " (left %.0f s)" s
          | None -> "")
          r.optimal
          (match r.reach_s with
          | Some s -> Printf.sprintf "in %.0f s" s
          | None -> "never")
          r.disruptions r.final_level)
      o.receivers;
    `Ok ()
  in
  let receivers =
    Arg.(
      value & opt pos_int_conv 4
      & info [ "receivers" ] ~docv:"N" ~doc:"Per set.")
  in
  let gap =
    Arg.(
      value & opt nonneg_int_conv 20
      & info [ "gap" ] ~docv:"S" ~doc:"Join gap (s).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Dynamic joins/departures on Topology A; convergence times.")
    Term.(ret (const run $ duration_term $ seed_term $ receivers $ gap))

(* ---------- fault scenarios ---------- *)

module Recovery = Scenarios.Recovery

let fmt_opt_s ppf = function
  | Some s -> Format.fprintf ppf "%.1f s" s
  | None -> Format.pp_print_string ppf "never"

let print_flap_receivers receivers =
  List.iter
    (fun (r : Recovery.flap_receiver) ->
      Format.printf
        "  n%-3d %-5s optimal %d (during failure %d) level %d->floor %d \
         recovery %a goodput %.0f -> %.0f kbps final %d@."
        r.node
        (if r.fast_branch then "fast" else "slow")
        r.optimal r.optimal_during r.pre_failure_level r.floor_level fmt_opt_s
        r.recovery_s
        (r.goodput_before_bps /. 1000.0)
        (r.goodput_during_bps /. 1000.0)
        r.final_level)
    receivers

let print_flap (o : Recovery.flap_outcome) =
  Format.printf
    "link-flap: down %.0f-%.0f s; %d routing recomputes, %d tree edges \
     repaired (%d passes), %d packets lost to the dead link, tree %s@."
    o.down_at_s o.up_at_s o.routing_recomputes o.edges_repaired o.repair_passes
    o.link_fault_drops
    (if o.tree_consistent then "consistent" else "INCONSISTENT");
  print_flap_receivers o.receivers

let print_crash (o : Recovery.crash_outcome) =
  Format.printf
    "router-crash: down %.0f-%.0f s; %d packets drained from the dead \
     router (%d links downed, %d restored), %d evictions / %d readmissions, \
     %d routing recomputes, %d tree edges repaired (%d passes), tree %s@."
    o.crash_at_s o.recover_at_s o.crash_drops o.crash_link_downs
    o.crash_link_ups o.evictions o.readmissions o.routing_recomputes
    o.edges_repaired o.repair_passes
    (if o.tree_consistent then "consistent" else "INCONSISTENT");
  List.iter
    (fun ((a, b), d) -> Format.printf "  link %d->%d: %d fault drops@." a b d)
    o.per_link_fault_drops;
  print_flap_receivers o.receivers

let print_outage (o : Recovery.outage_outcome) =
  Format.printf
    "controller-outage: fail %.0f s, failover %.0f s; suggestions primary \
     %d / standby %d; %s@."
    o.fail_at_s o.failover_at_s o.primary_suggestions o.standby_suggestions
    (if o.none_starved then "no receiver starved" else "A RECEIVER STARVED");
  List.iter
    (fun (r : Recovery.outage_receiver) ->
      Format.printf
        "  n%-3d optimal %d level-at-fail %d floor %d unilateral %d resync \
         %a final %d@."
        r.node r.optimal r.level_at_fail r.floor_level r.unilateral_actions
        fmt_opt_s r.resync_s r.final_level)
    o.receivers

let print_lossy (o : Recovery.lossy_outcome) =
  Format.printf
    "lossy-control: %.0f%% drop / %.0f%% delay; %d control packets dropped, \
     %d delayed; %d reports heard, %d suggestions sent; mean deviation %.3f@."
    (o.drop_fraction *. 100.0)
    (o.delay_fraction *. 100.0)
    o.control_dropped o.control_delayed o.reports_received o.suggestions_sent
    o.mean_deviation;
  if o.reliable then
    Format.printf
      "  reliable: %d/%d prescriptions delivered (%.1f%%), %d retransmits, \
       %d give-ups, %d acks, %d dups suppressed, %d stale dropped@."
      o.prescriptions_delivered o.suggestions_sent
      (if o.suggestions_sent = 0 then 100.0
       else
         100.0
         *. float_of_int o.prescriptions_delivered
         /. float_of_int o.suggestions_sent)
      o.retransmits o.give_ups o.acks_received o.dup_suppressed
      o.stale_suppressed;
  List.iter
    (fun (r : Recovery.lossy_receiver) ->
      Format.printf
        "  n%-3d optimal %d final %d deviation %.3f suggestions %d \
         unilateral %d@."
        r.node r.optimal r.final_level r.deviation r.suggestions_received
        r.unilateral_actions)
    o.receivers

let print_partition (o : Recovery.partition_outcome) =
  Format.printf
    "partition: control plane severed %.0f-%.0f s; %d evictions, %d \
     readmissions, %d retransmits (%d give-ups), %d prescriptions withheld \
     from evicted receivers, %d stale rejected, %d unroutable control \
     packets; %s, %s@."
    o.down_at_s o.up_at_s o.evictions o.readmissions o.retransmits o.give_ups
    o.lease_suppressed o.stale_rejected o.unroutable_drops
    (if o.none_starved then "no receiver starved" else "A RECEIVER STARVED")
    (if o.all_reconverged then "all reconverged within 3 intervals"
     else "SLOW RECONVERGENCE");
  List.iter
    (fun (r : Recovery.partition_receiver) ->
      Format.printf
        "  n%-3d optimal %d level %d->floor %d fallback %.1f s reconverge %a \
         unilateral %d final %d@."
        r.node r.optimal r.pre_failure_level r.floor_level r.fallback_s
        fmt_opt_s r.reconverge_s r.unilateral_actions r.final_level)
    o.receivers

(* The JSON fields the flap and the crash share: receivers back at their
   pre-failure level, the slowest of them, and the goodput kept through
   the fault. *)
let window_json (receivers : Recovery.flap_receiver list) =
  let recovered =
    List.length
      (List.filter
         (fun (r : Recovery.flap_receiver) -> r.recovery_s <> None)
         receivers)
  in
  let max_recovery =
    List.fold_left
      (fun acc (r : Recovery.flap_receiver) ->
        match r.recovery_s with Some s -> Float.max acc s | None -> acc)
      0.0 receivers
  in
  let goodput_ratio =
    let d, b =
      List.fold_left
        (fun (d, b) (r : Recovery.flap_receiver) ->
          (d +. r.goodput_during_bps, b +. r.goodput_before_bps))
        (0.0, 0.0) receivers
    in
    if b > 0.0 then d /. b else 0.0
  in
  Printf.sprintf
    "\"recovered\": %d, \"total\": %d, \"max_recovery_s\": %.1f, \
     \"goodput_ratio\": %.3f"
    recovered (List.length receivers) max_recovery goodput_ratio

let recovery_json ~flap ~crash ~outage ~lossy ~partition =
  let buf = Buffer.create 1024 in
  let opt_f = function Some s -> Printf.sprintf "%.1f" s | None -> "null" in
  Buffer.add_string buf "{\n  \"recovery\": [\n";
  let sections =
    List.filter_map Fun.id
      [
        Option.map
          (fun (o : Recovery.flap_outcome) ->
            Printf.sprintf
              "    {\"name\": \"link-flap\", %s, \"routing_recomputes\": \
               %d, \"edges_repaired\": %d, \"link_fault_drops\": %d, \
               \"tree_consistent\": %b}"
              (window_json o.receivers) o.routing_recomputes o.edges_repaired
              o.link_fault_drops o.tree_consistent)
          flap;
        Option.map
          (fun (o : Recovery.crash_outcome) ->
            let per_link =
              String.concat ", "
                (List.map
                   (fun ((a, b), d) ->
                     Printf.sprintf
                       "{\"src\": %d, \"dst\": %d, \"fault_drops\": %d}" a b d)
                   o.per_link_fault_drops)
            in
            Printf.sprintf
              "    {\"name\": \"router-crash\", %s, \"crash_drops\": %d, \
               \"crash_link_downs\": %d, \"crash_link_ups\": %d, \
               \"evictions\": %d, \"readmissions\": %d, \
               \"routing_recomputes\": %d, \"edges_repaired\": %d, \
               \"tree_consistent\": %b, \"per_link_fault_drops\": [%s]}"
              (window_json o.receivers) o.crash_drops o.crash_link_downs
              o.crash_link_ups o.evictions o.readmissions o.routing_recomputes
              o.edges_repaired o.tree_consistent per_link)
          crash;
        Option.map
          (fun (o : Recovery.outage_outcome) ->
            let resynced =
              List.length
                (List.filter
                   (fun (r : Recovery.outage_receiver) -> r.resync_s <> None)
                   o.receivers)
            in
            let max_resync =
              List.fold_left
                (fun acc (r : Recovery.outage_receiver) ->
                  match r.resync_s with Some s -> Float.max acc s | None -> acc)
                0.0 o.receivers
            in
            Printf.sprintf
              "    {\"name\": \"controller-outage\", \"none_starved\": %b, \
               \"resynced\": %d, \"total\": %d, \"max_resync_s\": %s, \
               \"primary_suggestions\": %d, \"standby_suggestions\": %d}"
              o.none_starved resynced
              (List.length o.receivers)
              (opt_f (Some max_resync))
              o.primary_suggestions o.standby_suggestions)
          outage;
        Option.map
          (fun (o : Recovery.lossy_outcome) ->
            Printf.sprintf
              "    {\"name\": \"lossy-control\", \"drop_fraction\": %.2f, \
               \"control_dropped\": %d, \"control_delayed\": %d, \
               \"reports_received\": %d, \"suggestions_sent\": %d, \
               \"mean_deviation\": %.3f, \"reliable\": %b, \
               \"prescriptions_delivered\": %d, \"retransmits\": %d, \
               \"dup_suppressed\": %d}"
              o.drop_fraction o.control_dropped o.control_delayed
              o.reports_received o.suggestions_sent o.mean_deviation o.reliable
              o.prescriptions_delivered o.retransmits o.dup_suppressed)
          lossy;
        Option.map
          (fun (o : Recovery.partition_outcome) ->
            let per_receiver =
              String.concat ", "
                (List.map
                   (fun (r : Recovery.partition_receiver) ->
                     Printf.sprintf
                       "{\"node\": %d, \"floor_level\": %d, \"fallback_s\": \
                        %.1f, \"reconverge_s\": %s, \"unilateral\": %d}"
                       r.node r.floor_level r.fallback_s (opt_f r.reconverge_s)
                       r.unilateral_actions)
                   o.receivers)
            in
            Printf.sprintf
              "    {\"name\": \"partition\", \"none_starved\": %b, \
               \"all_reconverged\": %b, \"retransmits\": %d, \"give_ups\": \
               %d, \"evictions\": %d, \"readmissions\": %d, \
               \"lease_suppressed\": %d, \"stale_rejected\": %d, \
               \"receivers\": [%s]}"
              o.none_starved o.all_reconverged o.retransmits o.give_ups
              o.evictions o.readmissions o.lease_suppressed o.stale_rejected
              per_receiver)
          partition;
      ]
  in
  Buffer.add_string buf (String.concat ",\n" sections);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let faults_cmd =
  let experiment_conv =
    Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "flap" -> Ok `Flap
          | "crash" -> Ok `Crash
          | "outage" -> Ok `Outage
          | "lossy" -> Ok `Lossy
          | "partition" -> Ok `Partition
          | "all" -> Ok `All
          | _ ->
              Error (`Msg "expected flap, crash, outage, lossy, partition or all")),
        fun ppf t ->
          Format.pp_print_string ppf
            (match t with
            | `Flap -> "flap"
            | `Crash -> "crash"
            | `Outage -> "outage"
            | `Lossy -> "lossy"
            | `Partition -> "partition"
            | `All -> "all") )
  in
  let experiment_term =
    Arg.(
      value & opt experiment_conv `All
      & info [ "experiment" ] ~docv:"flap|crash|outage|lossy|partition|all"
          ~doc:"Which fault scenario to run.")
  in
  let drop_term =
    Arg.(
      value & opt finite_float_conv 0.3
      & info [ "drop" ] ~docv:"F"
          ~doc:"Control-packet drop fraction for the lossy scenario.")
  in
  let reliable_term =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:
            "Run the lossy scenario with reliable (ACKed + retransmitted) \
             prescriptions.")
  in
  let json_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write recovery metrics as JSON.")
  in
  let run duration seed experiment drop reliable json =
    if drop < 0.0 || drop > 1.0 then `Error (true, "--drop must be in [0,1]")
    else begin
      let seed = Int64.of_int seed in
      let duration_t = Time.of_sec duration in
      let want x = experiment = `All || experiment = x in
      (* Flap and outage need room for the scripted fault times; scale the
         CLI duration but keep the scripted instants fixed. *)
      let flap =
        if want `Flap then
          Some
            (Recovery.link_flap ~seed
               ~duration:(Time.max duration_t (Time.of_sec 180))
               ())
        else None
      in
      let crash =
        if want `Crash then
          Some
            (Recovery.router_crash ~seed
               ~duration:(Time.max duration_t (Time.of_sec 200))
               ())
        else None
      in
      let outage =
        if want `Outage then
          Some
            (Recovery.controller_outage ~seed
               ~duration:(Time.max duration_t (Time.of_sec 200))
               ())
        else None
      in
      let lossy =
        if want `Lossy then
          Some
            (Recovery.lossy_control ~seed ~drop_fraction:drop
               ~duration:duration_t ~reliable ())
        else None
      in
      let partition =
        if want `Partition then
          Some
            (Recovery.partition ~seed
               ~duration:(Time.max duration_t (Time.of_sec 180))
               ())
        else None
      in
      Option.iter print_flap flap;
      Option.iter print_crash crash;
      Option.iter print_outage outage;
      Option.iter print_lossy lossy;
      Option.iter print_partition partition;
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc
            (recovery_json ~flap ~crash ~outage ~lossy ~partition);
          close_out oc;
          Format.printf "wrote %s@." path)
        json;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection scenarios: link flap under load, router crash, \
          controller outage with failover, lossy control plane, controller \
          partition.")
    Term.(
      ret
        (const run $ duration_term $ seed_term $ experiment_term $ drop_term
       $ reliable_term $ json_term))

let chaos_cmd =
  let world_conv =
    Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "kary" -> Ok `Kary
          | "transit" -> Ok `Transit
          | _ -> Error (`Msg "expected kary or transit")),
        fun ppf t ->
          Format.pp_print_string ppf
            (match t with `Kary -> "kary" | `Transit -> "transit") )
  in
  let world_term =
    Arg.(
      value & opt world_conv `Kary
      & info [ "world" ] ~docv:"kary|transit"
          ~doc:
            "World under test: a cross-linked k-ary tree with one flat \
             controller, or a federated transit-stub world with per-domain \
             leaf controllers and failover.")
  in
  let faults_term =
    Arg.(
      value & opt int 12
      & info [ "faults" ] ~docv:"N" ~doc:"Schedule length (random faults).")
  in
  let storm_term =
    Arg.(
      value & opt seconds_conv 60.0
      & info [ "storm" ] ~docv:"SECONDS"
          ~doc:"Fault-injection window; quiescence is measured after it.")
  in
  let smoke_term =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Fixed small CI configuration (kary world, 8 faults, 40 s \
             storm) overriding --world/--faults/--storm; still honours \
             --seed.")
  in
  let run seed world faults storm smoke =
    if faults < 0 then `Error (true, "--faults must be >= 0")
    else if storm < 20.0 then `Error (true, "--storm must be >= 20")
    else if not (Scenarios.Chaos.storm_fits storm) then
      `Error
        (true, "--storm must end, with its 30 s of quiet, within the clock's range")
    else begin
      let world, faults, storm =
        if smoke then (`Kary, 8, 40.0) else (world, faults, storm)
      in
      let world =
        match world with
        | `Kary -> Scenarios.Chaos.Kary { fanout = 3; depth = 3 }
        | `Transit ->
            Scenarios.Chaos.Transit_stub
              {
                transits = 3;
                stubs_per_transit = 3;
                receivers_per_stub = 50;
                active_domains = 4;
                active_per_domain = 3;
              }
      in
      let seed = Int64.of_int seed in
      let schedule =
        Scenarios.Chaos.gen
          ~rng:(Engine.Prng.create ~seed)
          ~faults ~storm_s:storm
      in
      let o = Scenarios.Chaos.run ~world ~schedule ~storm_s:storm ~seed () in
      Format.printf "%a@." Scenarios.Chaos.pp o;
      if Scenarios.Chaos.ok o then `Ok ()
      else begin
        List.iter (Format.eprintf "violation: %s@.") o.violations;
        `Error (false, "chaos: global invariants violated")
      end
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded chaos storm: random link flaps, node crashes, controller \
          outages and lossy control bursts, then global invariant checks \
          (routing vs fresh Dijkstra, trees vs fresh rebuild, lease books, \
          bounded re-prescription). Non-zero exit on any violation.")
    Term.(
      ret
        (const run $ seed_term $ world_term $ faults_term $ storm_term
       $ smoke_term))

let scale_cmd =
  let run seed receivers duration =
    match
      match receivers with
      | 10_000 -> Ok Scenarios.Scale.config_10k
      | 100_000 -> Ok Scenarios.Scale.config_100k
      | 1_000_000 -> Ok Scenarios.Scale.config_1m
      | _ -> Error "supported --receivers values: 10000, 100000, 1000000"
    with
    | Error msg -> `Error (false, msg)
    | Ok base ->
        let config = { base with Scenarios.Scale.seed = Int64.of_int seed } in
        let config =
          match duration with
          | None -> config
          | Some s -> { config with Scenarios.Scale.duration = Time.of_sec s }
        in
        let o = Scenarios.Scale.run ~config () in
        Format.printf "%a@." Scenarios.Scale.pp o;
        `Ok ()
  in
  let receivers =
    Arg.(
      value & opt int 10_000
      & info [ "receivers" ] ~docv:"N"
          ~doc:"Receiver population: 10000, 100000 or 1000000.")
  in
  let duration =
    Arg.(
      value
      & opt (some pos_seconds_conv) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Simulated seconds (default: the preset's).")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Scaled transit-stub world: full population on bitset membership, \
          lazy routing columns, per-stub controllers federated under an \
          O(domains) parent. Prints state counters, events/s and peak RSS.")
    Term.(ret (const run $ seed_term $ receivers $ duration))

let () =
  let info =
    Cmd.info "toposense_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Using Tree Topology for Multicast Congestion \
         Control' (ICPP 2001)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig6_cmd;
            fig7_cmd;
            fig8_cmd;
            fig9_cmd;
            fig10_cmd;
            table1_cmd;
            ablations_cmd;
            run_cmd;
            tiered_cmd;
            churn_cmd;
            faults_cmd;
            chaos_cmd;
            scale_cmd;
          ]))
