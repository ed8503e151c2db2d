(* Incremental route & tree maintenance under churn (PR 6): the link-up
   splice must reproduce from-scratch tables bit-for-bit (tie-breaks
   included), and the bounded repair path must keep every multicast tree
   equal to the reverse-path union a full rescan would produce — across
   random up/down/join/leave interleavings and at 500+ node scale. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Routing = Net.Routing
module Network = Net.Network
module Faults = Net.Faults
module Router = Multicast.Router
module Builders = Scenarios.Builders

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let edge_list = Alcotest.(list (pair int int))

(* ---------- oracles ---------- *)

(* Live tables vs a fresh compute with the same links disabled: next hop
   AND distance, every (from, dst) pair. *)
let tables_equal ~n live oracle =
  let ok = ref true in
  for from = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if from <> dst then
        ok :=
          !ok
          && Routing.next_hop_opt live ~from ~dst
             = Routing.next_hop_opt oracle ~from ~dst
          && Routing.distance live ~from ~dst
             = Routing.distance oracle ~from ~dst
    done
  done;
  !ok

let oracle_routing topo ~down =
  let r = Routing.compute topo in
  List.iter
    (fun (a, b) -> ignore (Routing.set_link_enabled r ~a ~b false))
    (List.sort compare down);
  r

(* The tree a full rebuild would install: union of the current reverse
   paths of every reachable member. *)
let expected_edges routing ~src ~members =
  let set = Hashtbl.create 64 in
  let rec walk c =
    if c <> src then
      match Routing.next_hop_opt routing ~from:c ~dst:src with
      | None -> ()
      | Some p ->
          if not (Hashtbl.mem set (p, c)) then begin
            Hashtbl.replace set (p, c) ();
            walk p
          end
  in
  List.iter walk members;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set [])

(* ---------- random topologies and op sequences ---------- *)

(* Connected graph: spanning tree (parent of node i+1 drawn from
   [0, i]) plus a few extra edges, all links at the same 20 ms delay so
   equal-cost ties — the hard case for canonical tie-breaks — are
   everywhere. *)
let build_topo (n, parents, extras) =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo n);
  let delay = Time.span_of_ms 20 in
  let linked = Hashtbl.create 32 in
  let add a b =
    let k = (min a b, max a b) in
    if a <> b && not (Hashtbl.mem linked k) then begin
      Hashtbl.add linked k ();
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7 ~delay ()
    end
  in
  List.iteri (fun i raw -> add (i + 1) (raw mod (i + 1))) parents;
  List.iter (fun (x, y) -> add (x mod n) (y mod n)) extras;
  topo

type op = Flip of int | Join of int | Leave of int

let case_gen =
  QCheck.Gen.(
    let* n = 4 -- 14 in
    let* parents = list_size (return (n - 1)) (int_bound 10_000) in
    let* extras = list_size (0 -- 6) (pair (int_bound 10_000) (int_bound 10_000)) in
    let* ops =
      list_size (6 -- 16)
        (let* k = 0 -- 2 in
         let* v = int_bound 10_000 in
         return (match k with 0 -> Flip v | 1 -> Join v | _ -> Leave v))
    in
    return ((n, parents, extras), ops))

let arbitrary_case =
  QCheck.make
    ~print:(fun ((n, _, _), ops) ->
      Printf.sprintf "n=%d ops=%d" n (List.length ops))
    case_gen

(* Apply the op sequence to [topo] one step at a time, settling 5 s
   after each (graft hops, the 1 s leave latency and prune propagation
   all land well inside that), and demand exact table and tree equality
   with the from-scratch oracles after every step. The group's source is
   node 0. *)
let run_case topo ops =
  let n = Topology.node_count topo in
  let sim = Sim.create ~seed:1L () in
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let group = Router.fresh_group router ~source:0 in
  let links =
    Array.of_list
      (List.map
         (fun (l : Topology.link_spec) -> (l.a, l.b))
         (Topology.links topo))
  in
  let down = Hashtbl.create 8 in
  let members = Hashtbl.create 8 in
  let t = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | Flip v ->
          let a, b = links.(v mod Array.length links) in
          let up_now = Network.link_is_up nw ~a ~b in
          Network.set_link_up nw ~a ~b (not up_now);
          if up_now then Hashtbl.replace down (a, b) ()
          else Hashtbl.remove down (a, b)
      | Join v ->
          let node = 1 + (v mod (n - 1)) in
          Hashtbl.replace members node ();
          Router.join router ~node ~group
      | Leave v ->
          let node = 1 + (v mod (n - 1)) in
          Hashtbl.remove members node;
          Router.leave router ~node ~group);
      incr t;
      Sim.run_until sim (Time.of_sec (5 * !t));
      let live = Network.routing nw in
      let downs = Hashtbl.fold (fun k () acc -> k :: acc) down [] in
      ok := !ok && tables_equal ~n live (oracle_routing topo ~down:downs);
      let mems = Hashtbl.fold (fun k () acc -> k :: acc) members [] in
      ok :=
        !ok
        && List.sort compare (Router.tree_edges router ~group)
           = expected_edges live ~src:0 ~members:mems;
      (* Membership indexes (bitset-backed since PR 7) stay consistent
         with the per-node local flags and the tree state: the members
         view is exactly the sorted ground truth, node-level [is_member]
         agrees with it everywhere, and every installed tree edge ends
         in an on-tree child. *)
      ok :=
        !ok
        && Router.members router ~group = List.sort compare mems
        && List.for_all
             (fun node ->
               Router.is_member router ~node ~group = Hashtbl.mem members node)
             (List.init n Fun.id)
        && List.for_all
             (fun (_, c) -> Router.on_tree router ~node:c ~group)
             (Router.tree_edges router ~group))
    ops;
  !ok

let prop_churn_matches_fresh_compute =
  QCheck.Test.make ~name:"churn == fresh compute (heap backend)" ~count:60
    arbitrary_case (fun (spec, ops) -> run_case (build_topo spec) ops)

(* ---------- deterministic large case ---------- *)

(* One fixed input at 585 nodes: the 8-ary tree of depth 3 (1 + 8 + 64
   + 512) with its sibling links, the source at the root. Every 32nd
   leaf joins, then 32 steps flip links (tree links and sibling detours
   alike), make members leave and make nodes join, with the tables and
   the tree checked against a fresh compute after every step. *)
let test_kary_churn () =
  let spec = Builders.kary ~fanout:8 ~depth:3 () in
  let topo = spec.Builders.topology in
  checki "1 + 8 + 64 + 512 nodes" 585 (Topology.node_count topo);
  let members =
    List.filteri (fun i _ -> i mod 32 = 0) (snd (List.hd spec.sessions))
  in
  (* [Join v] and [Leave v] act on node [1 + v mod 584] *)
  let joins = List.map (fun m -> Join (m - 1)) members in
  let rng = Engine.Prng.create ~seed:585L in
  let draw () = Engine.Prng.int rng ~bound:10_000 in
  let churn =
    List.init 32 (fun i ->
        match i mod 4 with
        | 0 | 1 -> Flip (draw ())
        | 2 -> Leave (List.nth members (draw () mod List.length members) - 1)
        | _ -> Join (draw ()))
  in
  checkb "tables and tree equal a fresh compute after every step" true
    (run_case topo (joins @ churn))

(* Flapping a redundant link is nearly free end to end: a leaf-level
   sibling link carries only the two leaves' mutual traffic, so the
   down recomputes two tables, the up splices the same two back, no
   other destination is touched, and the multicast repair — whose
   candidate index sees neither an affected source nor a tree edge on
   the link — cuts nothing. Under the old full-recompute + full-rescan
   path this cost 2 x nodes table rebuilds and a sweep of every
   group. *)
let test_redundant_link_flap_nearly_free () =
  let spec = Builders.kary ~fanout:4 ~depth:2 () in
  let sim = Sim.create ~seed:2L () in
  let nw = Network.create ~sim spec.Builders.topology in
  let router = Router.create ~network:nw () in
  let root, leaves =
    match spec.Builders.sessions with [ s ] -> s | _ -> assert false
  in
  let group = Router.fresh_group router ~source:root in
  List.iter (fun n -> Router.join router ~node:n ~group) leaves;
  Sim.run_until sim (Time.of_sec 5);
  let a, b =
    match leaves with l1 :: l2 :: _ -> (l1, l2) | _ -> assert false
  in
  checkb "consecutive leaves are cross-linked" true
    (List.mem b (Topology.neighbors spec.Builders.topology a));
  let routing = Network.routing nw in
  (* The pin below counts damage over the full table set; materialize it
     (grafting only touched the root's column). *)
  Routing.prefetch_all routing;
  let r0 = Routing.recomputes routing in
  let er0 = Router.edges_repaired router in
  let tree0 = List.sort compare (Router.tree_edges router ~group) in
  Network.set_link_up nw ~a ~b false;
  Sim.run_until sim (Time.of_sec 10);
  Network.set_link_up nw ~a ~b true;
  Sim.run_until sim (Time.of_sec 15);
  checki "only the two endpoints' tables were touched, twice" 4
    (Routing.recomputes routing - r0);
  checki "no tree edge was cut" er0 (Router.edges_repaired router);
  check edge_list "tree untouched" tree0
    (List.sort compare (Router.tree_edges router ~group))

(* ---------- link-up splice API ---------- *)

(* Equal-delay ring 0-1-2-3: every destination's tree crosses (0,1), so
   down and up both report all four destinations — the flap symmetry —
   and repeating the call is a no-op returning []. *)
let test_affected_destinations () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  let d = Time.span_of_ms 20 in
  List.iter
    (fun (a, b) -> Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ~delay:d ())
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  let r = Routing.compute topo in
  Routing.prefetch_all r;
  let downed = Routing.set_link_enabled r ~a:0 ~b:1 false in
  check (Alcotest.list Alcotest.int) "down affects all, ascending" [ 0; 1; 2; 3 ]
    downed;
  check (Alcotest.list Alcotest.int) "second down is a no-op" []
    (Routing.set_link_enabled r ~a:0 ~b:1 false);
  let upped = Routing.set_link_enabled r ~a:0 ~b:1 true in
  check (Alcotest.list Alcotest.int) "up affects the same set" downed upped;
  check (Alcotest.list Alcotest.int) "second up is a no-op" []
    (Routing.set_link_enabled r ~a:0 ~b:1 true);
  checkb "tables canonical after the flap" true
    (tables_equal ~n:4 r (Routing.compute topo))

(* ---------- lazy column semantics (PR 7) ---------- *)

(* Columns materialize on first query, link events maintain only what
   exists, and a column materialized after a link change still reads
   exactly like one maintained through it. Equal-delay ring 0-1-2-3. *)
let test_lazy_columns () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  let d = Time.span_of_ms 20 in
  List.iter
    (fun (a, b) -> Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ~delay:d ())
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  let r = Routing.compute topo in
  checki "nothing materialized at compute" 0 (Routing.materialized_columns r);
  checki "query toward 2 routes via the tie-break" 1
    (Routing.next_hop r ~from:0 ~dst:2);
  checki "one column materialized" 1 (Routing.materialized_columns r);
  (* Every destination's tree crosses (0,1), but only dst 2 exists. *)
  check (Alcotest.list Alcotest.int) "down maintains only the live column"
    [ 2 ]
    (Routing.set_link_enabled r ~a:0 ~b:1 false);
  checki "maintained column rerouted" 3 (Routing.next_hop r ~from:0 ~dst:2);
  (* A column materialized now sees the disabled link from birth... *)
  checki "late column computed against live links" 3
    (Routing.next_hop r ~from:0 ~dst:1);
  checki "two columns materialized" 2 (Routing.materialized_columns r);
  (* ...and both read bit-identically to an eager table flapped the same
     way (the remaining two materialize during the comparison). *)
  checkb "tables equal the oracle" true
    (tables_equal ~n:4 r (oracle_routing topo ~down:[ (0, 1) ]));
  checki "comparison materialized the rest" 4 (Routing.materialized_columns r);
  check (Alcotest.list Alcotest.int) "up now reports every changed column"
    [ 0; 1; 2; 3 ]
    (Routing.set_link_enabled r ~a:0 ~b:1 true);
  checkb "tables canonical after the flap" true
    (tables_equal ~n:4 r (Routing.compute topo))

(* ---------- dijkstra tie-break push skip (satellite) ---------- *)

(* Reference implementation with the pre-PR-7 behavior: an equality-only
   next-hop rewrite re-pushes the node, re-relaxing its adjacency for
   nothing. The fixed dijkstra must produce identical tables with
   strictly fewer pushes on a tie-heavy topology. *)
module Pqueue = Set.Make (struct
  type t = int * int * int (* distance, node, push number *)

  let compare = compare
end)

let reference_dijkstra topo dst =
  let n = Topology.node_count topo in
  let adj = Array.make n [] in
  List.iter
    (fun (l : Topology.link_spec) ->
      adj.(l.a) <- (l.b, l.delay) :: adj.(l.a);
      adj.(l.b) <- (l.a, l.delay) :: adj.(l.b))
    (Topology.links topo);
  Array.iteri (fun i ns -> adj.(i) <- List.sort compare ns) adj;
  let dist = Array.make n max_int in
  let next = Array.make n (-1) in
  let pushes = ref 0 in
  let queue = ref Pqueue.empty in
  (* The push number keeps a re-pushed (distance, node) pair a distinct
     entry, so it pops twice, as it would from a heap. *)
  let push (d, m) =
    incr pushes;
    queue := Pqueue.add (d, m, !pushes) !queue
  in
  dist.(dst) <- 0;
  push (0, dst);
  let rec loop () =
    match Pqueue.min_elt_opt !queue with
    | None -> ()
    | Some ((d, u, _) as entry) ->
        queue := Pqueue.remove entry !queue;
        if d = dist.(u) then
          List.iter
            (fun (m, w) ->
              let nd = d + w in
              if nd < dist.(m) || (nd = dist.(m) && next.(m) > u && m <> dst)
              then begin
                dist.(m) <- nd;
                next.(m) <- u;
                push (nd, m)
              end)
            adj.(u);
        loop ()
  in
  loop ();
  (next, dist, !pushes)

(* Chain of diamonds engineered so the equality rewrite fires on every
   diamond for every upstream destination: entry e, detour b = e+1,
   direct a = e+2, exit x = e+3; the a-side (10+10) and b-side (15+5)
   tie at 20 ms, a's side wins the distance race, then b — the lower id
   — rewrites the next hop. *)
let diamond_chain count =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo ((4 * count) + 1));
  let link a b ms =
    Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7
      ~delay:(Time.span_of_ms ms) ()
  in
  for i = 0 to count - 1 do
    let e = 4 * i in
    let b = e + 1 and a = e + 2 and x = e + 3 in
    link e a 10;
    link a x 10;
    link e b 15;
    link b x 5;
    if i < count - 1 then link x (e + 4) 10
  done;
  link (4 * (count - 1) + 3) (4 * count) 10;
  topo

let test_tie_push_skip () =
  let topo = diamond_chain 6 in
  let n = Topology.node_count topo in
  let live = Routing.compute topo in
  Routing.prefetch_all live;
  let ref_pushes = ref 0 in
  let ok = ref true in
  for dst = 0 to n - 1 do
    let next, dist, pushes = reference_dijkstra topo dst in
    ref_pushes := !ref_pushes + pushes;
    for from = 0 to n - 1 do
      if from <> dst then
        ok :=
          !ok
          && Routing.next_hop live ~from ~dst = next.(from)
          && Routing.distance live ~from ~dst = dist.(from)
    done
  done;
  checkb "tables equal the re-pushing reference" true !ok;
  checkb
    (Printf.sprintf "strictly fewer heap pushes (%d vs %d)"
       (Routing.heap_pushes live) !ref_pushes)
    true
    (Routing.heap_pushes live < !ref_pushes)

(* ---------- bounded repair regressions ---------- *)

(* Equal-delay ring, member 2, source 0. The canonical path is 2-1-0
   (tie-break: next(2) = min(1,3) = 1). One flap of (1,2) must cut
   exactly two edges over its lifetime — (1,2) on the way down, (3,2)
   on the way back — and land on the canonical tree again. *)
let test_flap_repairs_two_edges () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  let d = Time.span_of_ms 20 in
  List.iter
    (fun (a, b) -> Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ~delay:d ())
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  let sim = Sim.create () in
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let group = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group;
  Sim.run_until sim (Time.of_sec 1);
  check edge_list "canonical tree via the tie-break" [ (0, 1); (1, 2) ]
    (List.sort compare (Router.tree_edges router ~group));
  Network.set_link_up nw ~a:1 ~b:2 false;
  Sim.run_until sim (Time.of_sec 3);
  check edge_list "rerouted via 3" [ (0, 3); (3, 2) ]
    (List.sort compare (Router.tree_edges router ~group));
  checki "down cut one edge" 1 (Router.edges_repaired router);
  Network.set_link_up nw ~a:1 ~b:2 true;
  Sim.run_until sim (Time.of_sec 6);
  check edge_list "back on the canonical tree" [ (0, 1); (1, 2) ]
    (List.sort compare (Router.tree_edges router ~group));
  checki "up cut exactly one more" 2 (Router.edges_repaired router)

(* Empty and sourceless-at-heart groups cost nothing: flaps still count
   repair passes (one per topology event) but no edges are touched and
   nothing crashes. *)
let test_idle_groups_skipped () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  let d = Time.span_of_ms 20 in
  List.iter
    (fun (a, b) -> Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ~delay:d ())
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  let sim = Sim.create () in
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  let g1 = Router.fresh_group router ~source:0 in
  let g2 = Router.fresh_group router ~source:2 in
  let faults = Faults.create ~network:nw () in
  Faults.schedule_flap faults ~a:0 ~b:1 ~down_at:(Time.of_sec 1)
    ~up_at:(Time.of_sec 2);
  Faults.schedule_flap faults ~a:2 ~b:3 ~down_at:(Time.of_sec 3)
    ~up_at:(Time.of_sec 4);
  Sim.run_until sim (Time.of_sec 6);
  checki "one pass per topology event" 4 (Router.repair_passes router);
  checki "no edges touched" 0 (Router.edges_repaired router);
  check edge_list "g1 still empty" [] (Router.tree_edges router ~group:g1);
  check edge_list "g2 still empty" [] (Router.tree_edges router ~group:g2)

let () =
  Alcotest.run "incremental"
    [
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_churn_matches_fresh_compute;
          Alcotest.test_case "585-node k-ary churn" `Slow test_kary_churn;
        ] );
      ( "routing-api",
        [
          Alcotest.test_case "affected destinations" `Quick
            test_affected_destinations;
          Alcotest.test_case "redundant link flap nearly free" `Quick
            test_redundant_link_flap_nearly_free;
          Alcotest.test_case "lazy columns" `Quick test_lazy_columns;
          Alcotest.test_case "tie-break push skip" `Quick test_tie_push_skip;
        ] );
      ( "bounded-repair",
        [
          Alcotest.test_case "flap repairs two edges" `Quick
            test_flap_repairs_two_edges;
          Alcotest.test_case "idle groups skipped" `Quick
            test_idle_groups_skipped;
        ] );
    ]
