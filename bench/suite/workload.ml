(* The four workloads. Each is a closed-loop batch job: build a world
   (timed as setup), simulate it (timed as run), then check and digest
   what was simulated. Only public library functions are called.

   The digest covers simulated outputs only. Host-side counters
   (events, recomputes, materialized columns, state entries, GC) are
   reported as counts but stay out of it, so a change that makes the
   simulator cheaper without changing what it simulates keeps every
   digest. *)

module Time = Engine.Time
module Experiment = Scenarios.Experiment

type size = Full | Smoke

type result = {
  setup_s : float;  (** median over the setup repeats *)
  run_s : float;
  wall_s : float;  (** what a user waits for; see [measure] *)
  digest : string;
  checks : int;  (** checks attempted *)
  failures : string list;  (** the checks that failed, by name *)
  counts : (string * float) list;
}

(* What one workload hands back to the harness after its run. *)
type outputs = {
  digest_text : string;  (** canonical rendering of the simulated outputs *)
  checked : (string * bool) list;
  counted : (string * int) list;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Runs [setup] [repeats] times, keeping only the last world (so the
   earlier ones are garbage before the next starts), then [run] once on
   it. Setup work small enough to be noise in one shot is timed as the
   median of several. wall_s is one setup plus the run, unless
   [setup_in_run]: then the run rebuilds its own world, wall_s is the
   run alone, and run_s is what remains after setup_s. GC counts cover
   the run. *)
let measure ?(setup_in_run = false) ~repeats ~setup ~run () =
  let rec builds k times =
    let w, t = timed setup in
    if k <= 1 then (w, t :: times) else builds (k - 1) (t :: times)
  in
  let world, setup_times = builds repeats [] in
  let setup_s = Stats.median setup_times in
  let gc0 = Gc.quick_stat () in
  let out, run_t = timed (fun () -> run world) in
  let gc1 = Gc.quick_stat () in
  let wall_s, run_s =
    if setup_in_run then (run_t, run_t -. setup_s)
    else (setup_s +. run_t, run_t)
  in
  let minor = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let major = gc1.Gc.major_words -. gc0.Gc.major_words in
  let events = float_of_int (List.assoc "engine.events" out.counted) in
  let per_event x = if events = 0.0 then 0.0 else x /. events in
  {
    setup_s;
    run_s;
    wall_s;
    digest = Digest.to_hex (Digest.string out.digest_text);
    checks = List.length out.checked;
    failures =
      List.filter_map (fun (n, ok) -> if ok then None else Some n) out.checked;
    counts =
      List.map (fun (k, v) -> (k, float_of_int v)) out.counted
      @ [
          ("gc.minor_words", minor);
          ("gc.major_words", major);
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
          );
          ("gc.words_per_event", per_event (minor +. major));
          ("engine.ns_per_event", per_event (run_t *. 1e9));
        ];
  }

(* ---------- topoB-vbr: the data plane ---------- *)

let topo_b ~size ~seed =
  let sessions, sim_s =
    match size with Full -> (32, 600) | Smoke -> (4, 240)
  in
  measure ~repeats:25
    ~setup:(fun () -> Scenarios.Builders.topology_b ~session_count:sessions)
    ~run:(fun spec ->
      let o =
        Experiment.run ~spec ~traffic:(Experiment.Vbr 3.0)
          ~scheme:Experiment.Toposense ~seed:(Int64.of_int seed)
          ~duration:(Time.of_sec sim_s) ()
      in
      let receiver (r : Experiment.receiver_outcome) =
        Printf.sprintf "s%d n%d opt%d final%d loss%h changes[%s]" r.session
          r.node r.optimal r.final_level r.last_loss
          (String.concat ";"
             (List.map
                (fun (at, level) ->
                  Printf.sprintf "%d:%d" (Time.to_ns at) level)
                r.changes))
      in
      {
        digest_text =
          String.concat "\n"
            (List.map receiver o.receivers
            @ [
                Printf.sprintf "reports %d suggestions %d forwarded %d"
                  o.reports_received o.suggestions_sent o.forwarded_packets;
              ]);
        checked =
          [
            ("receivers", List.length o.receivers = sessions);
            ( "every receiver holds the base layer",
              List.for_all
                (fun (r : Experiment.receiver_outcome) -> r.final_level >= 1)
                o.receivers );
            ("controller heard reports", o.reports_received > 0);
            ("packets forwarded", o.forwarded_packets > 0);
          ];
        counted =
          [
            ("engine.events", o.events_dispatched);
            ("engine.peak_pending", o.peak_heap);
            ("engine.peak_live", o.peak_live);
            ("net.packets_forwarded", o.forwarded_packets);
            ("toposense.reports_received", o.reports_received);
            ("toposense.suggestions_sent", o.suggestions_sent);
          ];
      })
    ()

(* ---------- scale-100k: the control plane at scale ---------- *)

let scale ~size ~seed =
  let config =
    match size with
    | Full -> Scenarios.Scale.config_100k
    | Smoke ->
        {
          Scenarios.Scale.config_10k with
          transits = 2;
          stubs_per_transit = 2;
          receivers_per_stub = 50;
          active_domains = 2;
          active_per_domain = 2;
          duration = Time.of_sec 60;
        }
  in
  let config = { config with Scenarios.Scale.seed = Int64.of_int seed } in
  measure ~repeats:1
    ~setup:(fun () -> Scenarios.Scale.prepare ~config ())
    ~run:(fun prepared ->
      (* [execute] raises when lazy routing materializes more columns
         than the config allows; that is a failed check, not a crash. *)
      match Scenarios.Scale.execute prepared with
      | exception Failure msg ->
          {
            digest_text = "raised: " ^ msg;
            checked = [ ("routing columns within bound", false) ];
            counted = [ ("engine.events", 0) ];
          }
      | o ->
          let domains = Scenarios.Scale.domains_of config in
          {
            digest_text =
              Printf.sprintf
                "reports %d suggestions %d summaries %d parent_slots %d"
                o.reports_received o.suggestions_sent o.summaries_received
                o.parent_state_entries;
            checked =
              [
                ("routing columns within bound", true);
                ( "receivers",
                  o.receivers = Scenarios.Scale.receivers_of config );
                ( "at most one parent slot per domain",
                  o.parent_state_entries > 0
                  && o.parent_state_entries <= domains );
                ("parent heard summaries", o.summaries_received > 0);
                ("leaf controllers heard reports", o.reports_received > 0);
              ];
            counted =
              [
                ("engine.events", o.events_dispatched);
                ("net.materialized_columns", o.materialized_columns);
                ("toposense.reports_received", o.reports_received);
                ("toposense.suggestions_sent", o.suggestions_sent);
                ( "toposense.controller_state_entries",
                  o.controller_state_entries );
                ("federation.summaries_received", o.summaries_received);
                ("federation.parent_state_entries", o.parent_state_entries);
              ];
          })
    ()

(* ---------- chaos-10k: topology mutation beside forwarding ---------- *)

(* The fixed five-fault storm of the 10k chaos test. *)
let storm_10k =
  Scenarios.Chaos.
    [
      Ctrl_crash { domain = 2; at_s = 8.0; dur_s = 14.0 };
      Crash { victim = 77; at_s = 12.0; dur_s = 10.0 };
      Flap { link = 123; at_s = 16.0; dur_s = 6.0 };
      Lossy_burst { at_s = 25.0; dur_s = 7.0; drop = 0.4 };
      Parent_crash { at_s = 35.0; dur_s = 5.0 };
    ]

(* [Chaos.run] builds its world internally and has no public build/run
   seam, so setup_s times an identical standalone build of the same
   world (topology, network, multicast router), wall_s is the whole
   [Chaos.run], and run_s is their difference. *)
let chaos ~size ~seed =
  let world =
    match size with
    | Full ->
        Scenarios.Chaos.Transit_stub
          {
            transits = 5;
            stubs_per_transit = 4;
            receivers_per_stub = 500;
            active_domains = 8;
            active_per_domain = 3;
          }
    | Smoke -> Scenarios.Chaos.Kary { fanout = 3; depth = 2 }
  in
  let seed = Int64.of_int seed in
  measure ~setup_in_run:true ~repeats:7
    ~setup:(fun () ->
      let spec =
        match world with
        | Scenarios.Chaos.Kary { fanout; depth } ->
            Scenarios.Builders.kary ~fanout ~depth ()
        | Transit_stub { transits; stubs_per_transit; receivers_per_stub; _ }
          ->
            (Scenarios.Builders.transit_stub ~transits ~stubs_per_transit
               ~receivers_per_stub ())
              .Scenarios.Builders.spec
      in
      let sim = Engine.Sim.create ~seed () in
      let network = Net.Network.create ~sim spec.Scenarios.Builders.topology in
      ignore (Multicast.Router.create ~network ()))
    ~run:(fun () ->
      let o =
        Scenarios.Chaos.run ~world ~schedule:storm_10k ~storm_s:50.0 ~seed ()
      in
      {
        digest_text =
          Printf.sprintf
            "ok %b lost %d failovers %d rejoins %d rehomed %d evictions %d \
             readmissions %d crash_drops %d"
            (Scenarios.Chaos.ok o) o.lost_sessions o.failovers o.rejoins
            o.rehomed_prescriptions o.evictions o.readmissions o.crash_drops;
        checked =
          [
            ("global invariants hold", Scenarios.Chaos.ok o);
            ("no session lost", o.lost_sessions = 0);
            ("every degraded domain rejoined", o.rejoins = o.failovers);
          ];
        counted =
          [
            ("engine.events", o.events_dispatched);
            ("engine.peak_pending", o.peak_heap);
            ("engine.peak_live", o.peak_live);
            ("net.routing_recomputes", o.routing_recomputes);
            ("net.crash_drops", o.crash_drops);
            ("multicast.repair_passes", o.repair_passes);
            ("multicast.edges_repaired", o.edges_repaired);
            ("toposense.evictions", o.evictions);
            ("toposense.readmissions", o.readmissions);
            ("federation.failovers", o.failovers);
            ("federation.rejoins", o.rejoins);
            ("federation.rehomed_prescriptions", o.rehomed_prescriptions);
          ];
      })
    ()

(* ---------- engine-timers: the scheduler alone ---------- *)

(* 2,000 periodic chains (periods 1-50 ms) over 100,000 far one-shots
   that never fire; at half time 90% of the chains and every one-shot
   are cancelled. The seed rotates which chain gets which period and
   which chains survive, so every seed does the same amount of work.
   Firings are checked against the closed form: a cancelled chain of
   period p fires at every k*p strictly before the cancel instant (the
   cancel event was scheduled first, so it wins the tie), a survivor at
   every k*p up to the horizon inclusive. *)
let engine_timers ~size ~seed =
  let chains = 2_000 in
  let one_shots, sim_s =
    match size with Full -> (100_000, 120) | Smoke -> (10_000, 2)
  in
  let horizon_ns = sim_s * 1_000_000_000 in
  let half_ns = horizon_ns / 2 in
  let rot = ((seed mod 50) + 50) mod 50 in
  let period_ms i = 1 + ((i + rot) mod 50) in
  let survives i = (i + rot) mod 10 = 0 in
  let expected =
    let fires = ref 0 in
    for i = 0 to chains - 1 do
      let p = period_ms i * 1_000_000 in
      fires := !fires + if survives i then horizon_ns / p else (half_ns - 1) / p
    done;
    !fires
  in
  let horizon = Time.of_ns horizon_ns in
  measure ~repeats:5
    ~setup:(fun () ->
      let sim = Engine.Sim.create ~seed:(Int64.of_int seed) () in
      let fired = ref 0 in
      let tick () = incr fired in
      let handles =
        Array.init chains (fun i ->
            Engine.Sim.every sim ~period:(Time.span_of_ms (period_ms i)) tick)
      in
      let far =
        Array.init one_shots (fun i ->
            Engine.Sim.schedule_at sim
              (Time.add horizon (Time.span_of_ms (i + 1)))
              ignore)
      in
      ignore
        (Engine.Sim.schedule_at sim (Time.of_ns half_ns) (fun () ->
             Array.iteri
               (fun i h -> if not (survives i) then Engine.Sim.cancel sim h)
               handles;
             Array.iter (Engine.Sim.cancel sim) far));
      (sim, fired))
    ~run:(fun (sim, fired) ->
      Engine.Sim.run_until sim horizon;
      let events = Engine.Sim.events_dispatched sim in
      {
        digest_text = Printf.sprintf "fired %d" !fired;
        checked =
          [
            ("chain firings match the closed form", !fired = expected);
            ("one dispatch per firing plus the cancel", events = !fired + 1);
          ];
        counted =
          [
            ("engine.events", events);
            ("engine.peak_pending", Engine.Sim.max_pending sim);
            ("engine.peak_live", Engine.Sim.max_live_pending sim);
          ];
      })
    ()

type t = { name : string; run : size:size -> seed:int -> result }

let all =
  [
    { name = "topoB-vbr"; run = topo_b };
    { name = "scale-100k"; run = scale };
    { name = "chaos-10k"; run = chaos };
    { name = "engine-timers"; run = engine_timers };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
