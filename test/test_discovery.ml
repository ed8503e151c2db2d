(* Tests for session-tree snapshots and the staleness-buffered discovery
   service. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Snapshot = Discovery.Snapshot
module Service = Discovery.Service
module Builders = Scenarios.Builders

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* 0 (source) - 1 - {2, 3}; 1 - 4. *)
let harness () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 5);
  List.iter
    (fun (a, b) ->
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7
        ~delay:(Time.span_of_ms 10) ())
    [ (0, 1); (1, 2); (1, 3); (1, 4) ];
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  (sim, nw, router, session)

let settle sim s = Sim.run_until sim (Time.add (Sim.now sim) (Time.span_of_sec_f s))

let test_snapshot_structure () =
  let sim, _, router, session = harness () in
  Session.set_subscription_level session ~router ~node:2 ~level:2;
  Session.set_subscription_level session ~router ~node:3 ~level:4;
  settle sim 1.0;
  let snap = Snapshot.capture ~router ~session ~at:(Sim.now sim) () in
  checkb "is tree" true (Snapshot.is_tree snap);
  checki "source" 0 snap.source;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "members with levels" [ (2, 2); (3, 4) ] snap.members;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "edges, sorted" [ (0, 1); (1, 2); (1, 3) ]
    (List.map (fun (e : Snapshot.edge) -> (e.parent, e.child)) snap.edges)

let test_snapshot_edge_layers () =
  let sim, _, router, session = harness () in
  Session.set_subscription_level session ~router ~node:2 ~level:1;
  Session.set_subscription_level session ~router ~node:3 ~level:3;
  settle sim 1.0;
  let snap = Snapshot.capture ~router ~session ~at:(Sim.now sim) () in
  let edge p c =
    List.find (fun (e : Snapshot.edge) -> e.parent = p && e.child = c) snap.edges
  in
  Alcotest.check (Alcotest.list Alcotest.int) "0->1 carries union" [ 0; 1; 2 ]
    (edge 0 1).layers;
  Alcotest.check (Alcotest.list Alcotest.int) "1->2 base only" [ 0 ]
    (edge 1 2).layers;
  Alcotest.check (Alcotest.list Alcotest.int) "1->3 three layers" [ 0; 1; 2 ]
    (edge 1 3).layers

let test_snapshot_empty_session () =
  let sim, _, router, session = harness () in
  let snap = Snapshot.capture ~router ~session ~at:(Sim.now sim) () in
  checkb "tree (trivially)" true (Snapshot.is_tree snap);
  checki "no members" 0 (List.length snap.members);
  checki "no edges" 0 (List.length snap.edges)

let test_service_fresh_query () =
  let sim, _, router, session = harness () in
  let svc = Service.create ~sim ~router () in
  Service.register_session svc session;
  Session.set_subscription_level session ~router ~node:2 ~level:2;
  settle sim 1.0;
  match Service.query svc ~session:0 ~staleness:0 with
  | None -> Alcotest.fail "expected a snapshot"
  | Some snap ->
      checki "live members" 1 (List.length snap.members)

let test_service_staleness () =
  let sim, _, router, session = harness () in
  let svc = Service.create ~sim ~router () in
  Service.register_session svc session;
  (* Membership appears at t=5; a query at t=8 with staleness 5 must see
     the world as of t<=3: no members. *)
  ignore
    (Sim.schedule_at sim (Time.of_sec 5) (fun () ->
         Session.set_subscription_level session ~router ~node:2 ~level:2));
  Sim.run_until sim (Time.of_sec 8);
  (match Service.query svc ~session:0 ~staleness:(Time.span_of_sec 5) with
  | None -> Alcotest.fail "expected old snapshot"
  | Some snap ->
      checki "old view: no members" 0 (List.length snap.members);
      checkb "old timestamp" true Time.(snap.taken_at <= Time.of_sec 3));
  (* With staleness 1 the join is visible. *)
  match Service.query svc ~session:0 ~staleness:(Time.span_of_sec 1) with
  | None -> Alcotest.fail "expected recent snapshot"
  | Some snap -> checki "recent view: member" 1 (List.length snap.members)

let test_service_no_old_enough () =
  let sim, _, router, session = harness () in
  let svc = Service.create ~sim ~router () in
  Service.register_session svc session;
  Sim.run_until sim (Time.of_sec 2);
  checkb "nothing 10s old" true
    (Service.query svc ~session:0 ~staleness:(Time.span_of_sec 10) = None)

let test_service_unknown_session () =
  let sim, _, router, _session = harness () in
  let svc = Service.create ~sim ~router () in
  checkb "unknown" true (Service.query svc ~session:99 ~staleness:0 = None)

let test_leave_latency_visible_in_snapshot () =
  (* Discovery reports the actual forwarding state: a receiver that just
     left is off the member list but its branch is still on the tree. *)
  let sim, _, router, session = harness () in
  Session.set_subscription_level session ~router ~node:2 ~level:1;
  settle sim 1.0;
  Session.set_subscription_level session ~router ~node:2 ~level:0;
  settle sim 0.2;
  let snap = Snapshot.capture ~router ~session ~at:(Sim.now sim) () in
  checki "no members" 0 (List.length snap.members);
  checkb "branch still installed" true
    (List.exists (fun (e : Snapshot.edge) -> e.child = 2) snap.edges)

let test_service_sessions_in_order () =
  let sim, _, router, s0 = harness () in
  let s1 =
    Session.create ~router ~source:1 ~layering:Layering.paper_default ~id:7
  in
  let s2 =
    Session.create ~router ~source:2 ~layering:Layering.paper_default ~id:3
  in
  let svc = Service.create ~sim ~router () in
  List.iter (Service.register_session svc) [ s0; s1; s2 ];
  Alcotest.check (Alcotest.list Alcotest.int) "registration order" [ 0; 7; 3 ]
    (List.map Session.id (Service.sessions svc));
  checkb "found by id" true (Service.query svc ~session:7 ~staleness:0 <> None);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Discovery.Service.register_session: duplicate session")
    (fun () -> Service.register_session svc s1)

(* ---------- the domain registry and its per-snapshot partition ---------- *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

(* A restriction's outcome, with a raised message as a value. *)
let outcome f =
  match f () with
  | v -> Ok (v : Snapshot.t option)
  | exception Invalid_argument msg -> Error msg

let same_outcome a b =
  match (a, b) with
  | Ok None, Ok None -> true
  | Ok (Some (x : Snapshot.t)), Ok (Some (y : Snapshot.t)) ->
      x.session = y.session && x.taken_at = y.taken_at && x.source = y.source
      && x.edges = y.edges && x.members = y.members
  | Error m, Error m' -> String.equal m m'
  | _ -> false

(* A live session tree over a random kary or transit-stub world, with a
   random subset of its receivers joined at random levels. *)
let random_world rng ~transit_stub ~a ~b ~c =
  let spec, world_domains =
    if transit_stub then
      let w =
        Builders.transit_stub ~transits:(1 + a) ~stubs_per_transit:b
          ~receivers_per_stub:c ()
      in
      (w.Builders.spec, List.map snd w.Builders.domains)
    else (Builders.kary ~fanout:(1 + a) ~depth:b (), [])
  in
  let sim = Sim.create () in
  let nw = Network.create ~sim spec.Builders.topology in
  let router = Router.create ~network:nw () in
  let source, receivers =
    match spec.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let session =
    Session.create ~router ~source ~layering:Layering.paper_default ~id:3
  in
  List.iter
    (fun node ->
      let level = Random.State.int rng 4 in
      if level > 0 then Session.set_subscription_level session ~router ~node ~level)
    receivers;
  settle sim 2.0;
  let snap = Snapshot.capture ~router ~session ~at:(Sim.now sim) () in
  (sim, router, session, spec, world_domains, snap)

(* Disjoint node sets: every node lands in one of [k] domains or in none. *)
let random_domains rng ~nodes ~k =
  let sets = Array.make k [] in
  for n = nodes - 1 downto 0 do
    let s = Random.State.int rng (k + 1) - 1 in
    if s >= 0 then sets.(s) <- n :: sets.(s)
  done;
  Array.to_list sets

let prop_partition_matches_restrict =
  let gen =
    QCheck.Gen.(
      let* transit_stub = bool in
      let* a = 1 -- 3 in
      let* b = 1 -- 3 in
      let* c = 1 -- 4 in
      let* world_domains = bool in
      let* k = 1 -- 5 in
      let* seed = int in
      return (transit_stub, a, b, c, world_domains, k, seed))
  in
  let print (ts, a, b, c, wd, k, seed) =
    Printf.sprintf "transit_stub=%b a=%d b=%d c=%d world_domains=%b k=%d seed=%d"
      ts a b c wd k seed
  in
  QCheck.Test.make ~name:"partitioned lookup = one-domain restrict" ~count:150
    (QCheck.make ~print gen)
    (fun (transit_stub, a, b, c, world_domains, k, seed) ->
      let rng = Random.State.make [| seed |] in
      let sim, router, _, spec, wdoms, snap =
        random_world rng ~transit_stub ~a ~b ~c
      in
      let domains =
        if world_domains && wdoms <> [] then wdoms
        else
          random_domains rng
            ~nodes:(Topology.node_count spec.Builders.topology)
            ~k
      in
      let svc = Service.create ~sim ~router () in
      let handles =
        List.mapi
          (fun owner nodes -> (nodes, Service.register_domain svc ~owner nodes))
          domains
      in
      let agree =
        List.for_all
          (fun (nodes, d) ->
            same_outcome
              (outcome (fun () -> Service.restrict svc d snap))
              (outcome (fun () -> Snapshot.restrict snap ~domain:nodes)))
          handles
      in
      agree && Service.partitions svc = 1)

(* The overlay as a tuple-keyed table sorted by polymorphic compare:
   the plain statement of what [Snapshot.capture] computes. *)
let reference_edges router session =
  let tbl = Hashtbl.create 64 in
  for layer = Layering.count (Session.layering session) - 1 downto 0 do
    List.iter
      (fun key ->
        match Hashtbl.find_opt tbl key with
        | Some l -> l := layer :: !l
        | None -> Hashtbl.add tbl key (ref [ layer ]))
      (Router.tree_edges router ~group:(Session.group_for_layer session ~layer))
  done;
  Hashtbl.fold
    (fun (parent, child) layers acc ->
      { Snapshot.parent; child; layers = !layers } :: acc)
    tbl []
  |> List.sort (fun (a : Snapshot.edge) (b : Snapshot.edge) ->
         compare (a.parent, a.child) (b.parent, b.child))

let prop_capture_matches_reference =
  let gen =
    QCheck.Gen.(
      let* transit_stub = bool in
      let* a = 1 -- 3 in
      let* b = 1 -- 3 in
      let* c = 1 -- 4 in
      let* seed = int in
      return (transit_stub, a, b, c, seed))
  in
  let print (ts, a, b, c, seed) =
    Printf.sprintf "transit_stub=%b a=%d b=%d c=%d seed=%d" ts a b c seed
  in
  QCheck.Test.make ~name:"capture = tuple-keyed reference overlay" ~count:60
    (QCheck.make ~print gen)
    (fun (transit_stub, a, b, c, seed) ->
      let rng = Random.State.make [| seed |] in
      let _, router, session, _, _, snap =
        random_world rng ~transit_stub ~a ~b ~c
      in
      snap.edges = reference_edges router session)

let chain_world () =
  (* The harness star: tree 0 -> 1 -> {2, 3}, members 2 and 3. *)
  let sim, nw, router, session = harness () in
  Session.set_subscription_level session ~router ~node:2 ~level:1;
  Session.set_subscription_level session ~router ~node:3 ~level:2;
  settle sim 1.0;
  let svc = Service.create ~sim ~router () in
  (sim, nw, router, session, svc)

let capture sim router session =
  Snapshot.capture ~router ~session ~at:(Sim.now sim) ()

let test_memo_one_pass_for_many () =
  let sim, _, router, session, svc = chain_world () in
  let domains =
    List.mapi
      (fun owner nodes -> Service.register_domain svc ~owner nodes)
      [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
  in
  let snap = capture sim router session in
  for _ = 1 to 3 do
    List.iter (fun d -> ignore (Service.restrict svc d snap)) domains
  done;
  checki "one pass, 12 lookups" 1 (Service.partitions svc)

let test_memo_new_domain_repartitions () =
  let sim, _, router, session, svc = chain_world () in
  let d1 = Service.register_domain svc ~owner:1 [ 1 ] in
  let snap = capture sim router session in
  ignore (Service.restrict svc d1 snap);
  let d2 = Service.register_domain svc ~owner:2 [ 2 ] in
  (match Service.restrict svc d2 snap with
  | Some v -> checki "late domain sees its node" 2 v.source
  | None -> Alcotest.fail "late domain must see the tree");
  checki "re-partitioned" 2 (Service.partitions svc);
  ignore (Service.restrict svc d1 snap);
  checki "then memoized" 2 (Service.partitions svc)

let test_memo_newer_capture_repartitions () =
  let sim, _, router, session, svc = chain_world () in
  let d = Service.register_domain svc ~owner:3 [ 3 ] in
  let old_snap = capture sim router session in
  checkb "member seen" true
    (match Service.restrict svc d old_snap with
    | Some v -> v.members = [ (3, 2) ]
    | None -> false);
  Session.set_subscription_level session ~router ~node:3 ~level:0;
  settle sim 1.0;
  let snap = capture sim router session in
  checkb "newer capture: member gone" true
    (match Service.restrict svc d snap with
    | Some v -> v.members = []
    | None -> true);
  checki "re-partitioned" 2 (Service.partitions svc)

let test_memo_controllers_share_one_pass () =
  (* Six leaf controllers on one service, each interval querying the
     same aged capture: the service partitions each capture at most once,
     however many controllers read it. *)
  let w =
    Builders.transit_stub ~transits:2 ~stubs_per_transit:3
      ~receivers_per_stub:4 ()
  in
  let spec = w.Builders.spec in
  let sim = Sim.create ~seed:5L () in
  let network = Network.create ~sim spec.Builders.topology in
  let router = Router.create ~network () in
  let params =
    {
      Toposense.Params.default with
      staleness = Toposense.Params.default.interval;
    }
  in
  let svc = Service.create ~sim ~router ~period:params.interval () in
  let source, receivers =
    match spec.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let session =
    Session.create ~router ~source ~layering:Layering.paper_default ~id:0
  in
  Service.register_session svc session;
  List.iter
    (fun node -> Session.set_subscription_level session ~router ~node ~level:1)
    receivers;
  let controllers =
    List.map
      (fun (_, members) ->
        let c =
          Toposense.Controller.create ~network ~discovery:svc ~params
            ~node:(List.hd members) ~domain:members ()
        in
        Toposense.Controller.add_session c session;
        Toposense.Controller.start c;
        c)
      w.Builders.domains
  in
  let duration = 10 in
  Sim.run_until sim (Time.of_sec duration);
  let intervals =
    List.fold_left (fun acc c -> acc + Toposense.Controller.intervals_run c) 0
      controllers
  in
  let captures = 1 + (Time.to_ns (Time.of_sec duration) / params.interval) in
  checkb "controllers ran" true (intervals >= 6 * 3);
  checkb "some pass made" true (Service.partitions svc >= 1);
  checkb "at most one pass per capture" true
    (Service.partitions svc <= captures)

let test_overlapping_domains_rejected () =
  let _, _, _, _, svc = chain_world () in
  let a = Service.register_domain svc ~owner:1 [ 1; 2; 3 ] in
  (match Service.register_domain svc ~owner:4 [ 4; 3 ] with
  | _ -> Alcotest.fail "partial overlap must be rejected"
  | exception Invalid_argument msg ->
      checkb "names the shared node" true (contains msg "node n3");
      checkb "names the first controller" true (contains msg "controller n1");
      checkb "names the second controller" true (contains msg "controller n4"));
  let b = Service.register_domain svc ~owner:9 [ 3; 2; 1; 2 ] in
  checkb "identical set shares the slot" true (a = b)

let test_identical_domain_keeps_memo () =
  let sim, _, router, session, svc = chain_world () in
  let a = Service.register_domain svc ~owner:1 [ 1; 2; 3 ] in
  let snap = capture sim router session in
  let va = Service.restrict svc a snap in
  let b = Service.register_domain svc ~owner:2 [ 1; 2; 3 ] in
  checkb "same view" true (Service.restrict svc b snap = va);
  checki "no second pass" 1 (Service.partitions svc)

let test_overlapping_controllers_rejected () =
  let _, network, _, _, svc = chain_world () in
  let params = Toposense.Params.default in
  ignore
    (Toposense.Controller.create ~network ~discovery:svc ~params ~node:1
       ~domain:[ 1; 2 ] ());
  match
    Toposense.Controller.create ~network ~discovery:svc ~params ~node:4
      ~domain:[ 2; 4 ] ()
  with
  | _ -> Alcotest.fail "overlapping controller domains must be rejected"
  | exception Invalid_argument msg ->
      checkb "names the shared node" true (contains msg "node n2")

let test_multi_ingress_raised_to_its_domain_only () =
  let sim, _, router, session, svc = chain_world () in
  (* {2, 3} is entered twice (both from 1); {1} is entered once. *)
  let bad = Service.register_domain svc ~owner:3 [ 2; 3 ] in
  let good = Service.register_domain svc ~owner:1 [ 1 ] in
  let snap = capture sim router session in
  checkb "good domain served" true (Service.restrict svc good snap <> None);
  (match Service.restrict svc bad snap with
  | _ -> Alcotest.fail "two-ingress domain must raise"
  | exception Invalid_argument msg ->
      checkb "restrict's message" true (contains msg "Snapshot.restrict: session 0"));
  checki "one pass" 1 (Service.partitions svc)

let () =
  Alcotest.run "discovery"
    [
      ( "snapshot",
        [
          Alcotest.test_case "structure" `Quick test_snapshot_structure;
          Alcotest.test_case "edge layers" `Quick test_snapshot_edge_layers;
          Alcotest.test_case "empty session" `Quick test_snapshot_empty_session;
          Alcotest.test_case "leave latency visible" `Quick
            test_leave_latency_visible_in_snapshot;
        ] );
      ( "service",
        [
          Alcotest.test_case "fresh query" `Quick test_service_fresh_query;
          Alcotest.test_case "staleness" `Quick test_service_staleness;
          Alcotest.test_case "no old enough" `Quick test_service_no_old_enough;
          Alcotest.test_case "unknown session" `Quick
            test_service_unknown_session;
          Alcotest.test_case "sessions in order" `Quick
            test_service_sessions_in_order;
        ] );
      ( "partition",
        [
          QCheck_alcotest.to_alcotest prop_capture_matches_reference;
          QCheck_alcotest.to_alcotest prop_partition_matches_restrict;
          Alcotest.test_case "one pass for many lookups" `Quick
            test_memo_one_pass_for_many;
          Alcotest.test_case "new domain re-partitions" `Quick
            test_memo_new_domain_repartitions;
          Alcotest.test_case "newer capture re-partitions" `Quick
            test_memo_newer_capture_repartitions;
          Alcotest.test_case "controllers share one pass" `Quick
            test_memo_controllers_share_one_pass;
          Alcotest.test_case "multi-ingress raised to its domain only" `Quick
            test_multi_ingress_raised_to_its_domain_only;
        ] );
      ( "domains",
        [
          Alcotest.test_case "overlap rejected" `Quick
            test_overlapping_domains_rejected;
          Alcotest.test_case "identical set keeps the memo" `Quick
            test_identical_domain_keeps_memo;
          Alcotest.test_case "overlapping controllers rejected" `Quick
            test_overlapping_controllers_rejected;
        ] );
    ]
