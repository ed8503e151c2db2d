(* PR 7: scaled worlds — transit-stub generation, domain validation,
   controller federation, and the state-scaling invariants (lazy routing
   columns, O(domains) parent state, O(reporters) controller state). *)

module Time = Engine.Time
module Sim = Engine.Sim
module Builders = Scenarios.Builders
module Scale = Scenarios.Scale
module Federation = Toposense.Federation

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

(* ---------- transit-stub generation + domain validation ---------- *)

let test_transit_stub_shape () =
  let w =
    Builders.transit_stub ~transits:3 ~stubs_per_transit:2
      ~receivers_per_stub:4 ()
  in
  let receivers =
    match w.Builders.spec.Builders.sessions with
    | [ (_, rs) ] -> rs
    | _ -> Alcotest.fail "expected one session"
  in
  checki "receivers" 24 (List.length receivers);
  checki "domains" 6 (List.length w.Builders.domains);
  (* every node outside the domains but the source is a transit *)
  checki "transits" 3
    (Net.Topology.node_count w.Builders.spec.Builders.topology
    - 1
    - List.length (List.concat_map snd w.Builders.domains));
  (* source + transits + stub routers + receivers *)
  checki "nodes" (1 + 3 + 6 + 24)
    (Net.Topology.node_count w.Builders.spec.Builders.topology);
  checkb "connected" true
    (Net.Topology.is_connected w.Builders.spec.Builders.topology);
  List.iter
    (fun (_, members) -> checki "domain size" 5 (List.length members))
    w.Builders.domains;
  checkb "domains valid" true
    (Builders.validate_domains ~topology:w.Builders.spec.Builders.topology
       ~domains:w.Builders.domains
    = Ok ())

let test_multi_homed_rejected () =
  (* The deliberately mis-drawn world: each stub's first receiver also
     links to the transit, so every domain has two attachment points and
     world construction must die with a message naming them. *)
  match
    Builders.transit_stub ~transits:2 ~stubs_per_transit:1
      ~receivers_per_stub:3 ~multi_homed:true ()
  with
  | _ -> Alcotest.fail "multi-homed domains must be rejected"
  | exception Invalid_argument msg ->
      checkb "names the domain" true (contains msg "domain 0");
      checkb "points at the fix" true (contains msg "single node")

let test_multi_homed_buildable_unvalidated () =
  (* validate:false builds the same world, and validate_domains reports
     the defect as a value instead of an exception. *)
  let w =
    Builders.transit_stub ~transits:2 ~stubs_per_transit:1
      ~receivers_per_stub:3 ~multi_homed:true ~validate:false ()
  in
  match
    Builders.validate_domains ~topology:w.Builders.spec.Builders.topology
      ~domains:w.Builders.domains
  with
  | Ok () -> Alcotest.fail "expected a validation error"
  | Error msg -> checkb "mentions attachment count" true (contains msg "2 nodes")

let test_validate_rejects_overlap_and_empty () =
  let w =
    Builders.transit_stub ~transits:2 ~stubs_per_transit:1
      ~receivers_per_stub:2 ()
  in
  let topology = w.Builders.spec.Builders.topology in
  (match w.Builders.domains with
  | (ida, nodes_a) :: (idb, nodes_b) :: _ ->
      (match
         Builders.validate_domains ~topology
           ~domains:[ (ida, nodes_a); (idb, List.hd nodes_a :: nodes_b) ]
       with
      | Error msg -> checkb "overlap named" true (contains msg "overlaps")
      | Ok () -> Alcotest.fail "overlap must be rejected")
  | _ -> Alcotest.fail "expected two domains");
  match Builders.validate_domains ~topology ~domains:[ (9, []) ] with
  | Error msg -> checkb "empty named" true (contains msg "empty")
  | Ok () -> Alcotest.fail "empty domain must be rejected"

(* ---------- restrict's multi-ingress error is actionable ---------- *)

let test_restrict_error_names_ingresses () =
  let snap =
    {
      Discovery.Snapshot.session = 5;
      taken_at = Time.zero;
      source = 0;
      edges =
        List.map
          (fun (parent, child) ->
            { Discovery.Snapshot.parent; child; layers = [ 0 ] })
          [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 6) ];
      members = [ (4, 2); (6, 1) ];
      versions = [||];
    }
  in
  match Discovery.Snapshot.restrict snap ~domain:[ 4; 6 ] with
  | _ -> Alcotest.fail "two-ingress restrict must raise"
  | exception Invalid_argument msg ->
      checkb "names session" true (contains msg "session 5");
      checkb "names first ingress" true (contains msg "n4");
      checkb "names second ingress" true (contains msg "n6")

(* ---------- federation parent ---------- *)

let two_node_net () =
  let sim = Sim.create ~seed:7L () in
  let topo = Net.Topology.create () in
  let a = Net.Topology.add_node topo in
  let b = Net.Topology.add_node topo in
  Net.Topology.add_duplex topo ~a ~b ~bandwidth_bps:(Net.Topology.mbps 10.0) ();
  (sim, Net.Network.create ~sim topo, a, b)

let test_parent_slots () =
  let sim, network, parent_node, leaf_node = two_node_net () in
  let parent = Federation.create_parent ~network ~node:parent_node in
  let leaf_a = Federation.leaf ~parent:parent_node ~domain_id:0 in
  let leaf_b = Federation.leaf ~parent:parent_node ~domain_id:1 in
  let send leaf ~session =
    Federation.send_summary leaf ~network ~src:leaf_node ~session
  in
  send leaf_a ~session:0;
  send leaf_b ~session:0;
  send leaf_a ~session:1;
  (* Refresh leaf_a's session-0 slot: same slot, newer seq. *)
  send leaf_a ~session:0;
  Sim.run_until sim (Time.of_sec 5);
  checki "summaries" 4 (Federation.summaries_received parent);
  (* Slots are per (session, domain): refreshes overwrite in place. *)
  checki "state entries" 3 (Federation.state_entries parent);
  checki "nothing stale" 0 (Federation.stale_dropped parent)

let test_parent_drops_stale_seq () =
  let sim, network, parent_node, leaf_node = two_node_net () in
  let parent = Federation.create_parent ~network ~node:parent_node in
  (* Two leaf handles for the same domain model a reordered duplicate:
     the second handle restarts its seq at 0, below the slot's. *)
  let fresh = Federation.leaf ~parent:parent_node ~domain_id:0 in
  let send leaf =
    Federation.send_summary leaf ~network ~src:leaf_node ~session:0
  in
  send fresh;
  send fresh;
  let straggler = Federation.leaf ~parent:parent_node ~domain_id:0 in
  send straggler;
  Sim.run_until sim (Time.of_sec 5);
  checki "stale dropped" 1 (Federation.stale_dropped parent);
  (* The slot kept the newest seq (1): the straggler's seq 1 is a
     duplicate, the fresh stream's seq 2 is admitted. *)
  send straggler;
  send fresh;
  Sim.run_until sim (Time.of_sec 6);
  checki "newest kept" 2 (Federation.stale_dropped parent);
  checki "one slot" 1 (Federation.state_entries parent)

(* ---------- the scale scenario's state invariants ---------- *)

let tiny_config ~receivers_per_stub =
  {
    Scale.transits = 2;
    stubs_per_transit = 2;
    receivers_per_stub;
    active_domains = 2;
    active_per_domain = 2;
    duration = Time.of_sec 14;
    seed = 42L;
  }

let test_scale_state_independent_of_population () =
  let small = Scale.run ~config:(tiny_config ~receivers_per_stub:5) () in
  let large = Scale.run ~config:(tiny_config ~receivers_per_stub:40) () in
  checki "small population" 20 small.Scale.receivers;
  checki "large population" 160 large.Scale.receivers;
  (* The paper-scale claim, pinned: an 8x receiver population moves NONE
     of the control-plane state counters. *)
  checki "parent slots (small)" (1 * small.Scale.domains)
    small.Scale.parent_state_entries;
  checki "parent slots equal" small.Scale.parent_state_entries
    large.Scale.parent_state_entries;
  checki "controller entries = reporters" small.Scale.active_agents
    small.Scale.controller_state_entries;
  checki "controller entries equal" small.Scale.controller_state_entries
    large.Scale.controller_state_entries;
  checki "columns equal" small.Scale.materialized_columns
    large.Scale.materialized_columns;
  checkb "columns within bound" true
    (large.Scale.materialized_columns <= large.Scale.column_bound);
  checkb "summaries flowed" true (large.Scale.summaries_received > 0);
  checkb "reports flowed" true (large.Scale.reports_received > 0)

(* ---------- random configs replay identically ---------- *)

(* The scale scenario is deterministic per config: two runs agree on
   every outcome field except the timing and RSS readings — event and
   routing-column counts included — and stay within the column bound. *)
let scale_config_gen =
  QCheck.Gen.(
    let* transits = 2 -- 3 in
    let* receivers_per_stub = 3 -- 6 in
    let* active_domains = 1 -- (2 * transits) in
    let* active_per_domain = 1 -- 2 in
    let* duration_s = 10 -- 14 in
    let* seed = 0 -- 1000 in
    return
      {
        Scale.transits;
        stubs_per_transit = 2;
        receivers_per_stub;
        active_domains;
        active_per_domain;
        duration = Time.of_sec duration_s;
        seed = Int64.of_int seed;
      })

let scale_config_print cfg =
  Printf.sprintf
    "transits=%d stubs=%d receivers=%d active=%dx%d duration=%.0fs seed=%Ld"
    cfg.Scale.transits cfg.Scale.stubs_per_transit cfg.Scale.receivers_per_stub
    cfg.Scale.active_domains cfg.Scale.active_per_domain
    (Time.to_sec_f cfg.Scale.duration)
    cfg.Scale.seed

let untimed (o : Scale.outcome) =
  {
    o with
    Scale.build_cpu_s = 0.0;
    run_cpu_s = 0.0;
    events_per_sec = 0.0;
    peak_rss_kb = 0;
  }

let prop_runs_deterministic =
  QCheck.Test.make ~name:"repeated runs agree on every count" ~count:6
    (QCheck.make ~print:scale_config_print scale_config_gen)
    (fun cfg ->
      let first = Scale.run ~config:cfg () in
      let again = Scale.run ~config:cfg () in
      untimed first = untimed again
      && first.Scale.materialized_columns <= first.Scale.column_bound)

let test_tiered_federated () =
  let world = Scenarios.Tiered.generate ~seed:11L () in
  let o =
    Scenarios.Tiered.run ~world ~control:Scenarios.Tiered.Federated
      ~traffic:Scenarios.Experiment.Cbr ~duration:(Time.of_sec 60) ()
  in
  checki "one controller per region" 3 o.Scenarios.Tiered.controllers;
  checkb "parent heard the leaves" true
    (o.Scenarios.Tiered.summaries_received > 0);
  (* 1 session x 3 regional domains. *)
  checki "parent state O(domains)" 3 o.Scenarios.Tiered.parent_state_entries

let () =
  Alcotest.run "scale"
    [
      ( "transit-stub",
        [
          Alcotest.test_case "world shape + valid domains" `Quick
            test_transit_stub_shape;
          Alcotest.test_case "multi-homed rejected at build" `Quick
            test_multi_homed_rejected;
          Alcotest.test_case "unvalidated build + Error path" `Quick
            test_multi_homed_buildable_unvalidated;
          Alcotest.test_case "overlap and empty rejected" `Quick
            test_validate_rejects_overlap_and_empty;
        ] );
      ( "restrict",
        [
          Alcotest.test_case "multi-ingress error is actionable" `Quick
            test_restrict_error_names_ingresses;
        ] );
      ( "federation",
        [
          Alcotest.test_case "slots" `Quick
            test_parent_slots;
          Alcotest.test_case "stale summaries dropped" `Quick
            test_parent_drops_stale_seq;
        ] );
      ( "scale-scenario",
        [
          Alcotest.test_case "state independent of population" `Slow
            test_scale_state_independent_of_population;
          Alcotest.test_case "tiered federated control" `Slow
            test_tiered_federated;
        ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest [ prop_runs_deterministic ] );
    ]
