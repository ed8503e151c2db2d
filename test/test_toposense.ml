(* Unit tests for the TopoSense algorithm stages: parameters, the Table I
   decision table, the controller's tree image, back-off timers,
   congestion states, capacity estimation, fair sharing and the
   demand/supply pass. *)

module Time = Engine.Time
module Params = Toposense.Params
module Decision = Toposense.Decision
module Tree = Toposense.Tree
module Backoff = Toposense.Backoff
module Congestion = Toposense.Congestion
module Capacity = Toposense.Capacity
module Fair_share = Toposense.Fair_share
module Algorithm = Toposense.Algorithm
module Layering = Traffic.Layering

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let params = Params.default

(* Build a snapshot by hand: edges as (parent, child, layers), members as
   (node, level). *)
let snapshot ?(session = 0) ?(source = 0) ~edges ~members () =
  {
    Discovery.Snapshot.session;
    taken_at = Time.zero;
    source;
    edges =
      List.map
        (fun (parent, child, layers) ->
          { Discovery.Snapshot.parent; child; layers })
        edges;
    members;
    versions = [||];
  }

let tree_of snap = Option.get (Tree.of_snapshot snap)

(* Indices of a node's children and of its ancestors (parent up to the
   source). *)
let children tree i =
  List.init (Tree.child_count tree i) (fun k -> Tree.first_child tree i + k)

let rec ancestors tree i =
  match Tree.parent tree i with -1 -> [] | p -> p :: ancestors tree p

(* The Fig. 1-ish shape used throughout:
   0 -> 1 -> {2 -> {4, 5}, 3 -> {6, 7}} with members 4..7. *)
let two_branch ?(levels = [ (4, 4); (5, 4); (6, 2); (7, 2) ]) () =
  snapshot
    ~edges:
      [
        (0, 1, [ 0 ]);
        (1, 2, [ 0 ]);
        (1, 3, [ 0 ]);
        (2, 4, [ 0 ]);
        (2, 5, [ 0 ]);
        (3, 6, [ 0 ]);
        (3, 7, [ 0 ]);
      ]
    ~members:levels ()

(* ---------- Params ---------- *)

let test_params_default_valid () =
  checkb "default ok" true (Params.validate Params.default = Ok ())

let test_params_rejections () =
  let bad =
    [
      { params with Params.interval = 0 };
      { params with Params.capacity_reset_intervals = 0 };
      { params with Params.staleness = -1 };
      { params with Params.lease_intervals = 0 };
    ]
  in
  List.iteri
    (fun i p ->
      checkb (Printf.sprintf "bad %d rejected" i) true
        (match Params.validate p with Error _ -> true | Ok () -> false))
    bad

(* ---------- Decision table (Table I, exhaustive) ---------- *)

let action =
  Alcotest.testable Decision.pp_action (fun a b -> a = b)

let test_history_bits () =
  checki "000" 0 (Decision.history_bits ~older:false ~middle:false ~current:false);
  checki "001" 1 (Decision.history_bits ~older:false ~middle:false ~current:true);
  checki "010" 2 (Decision.history_bits ~older:false ~middle:true ~current:false);
  checki "100" 4 (Decision.history_bits ~older:true ~middle:false ~current:false);
  checki "111" 7 (Decision.history_bits ~older:true ~middle:true ~current:true)

let lookup = Decision.lookup

let test_leaf_lesser_rows () =
  let bw = Decision.Lesser in
  Alcotest.check action "h0 add" Decision.Add_next_layer
    (lookup ~kind:Decision.Leaf ~history:0 ~bw);
  Alcotest.check action "h1 drop if high" Decision.Drop_layer_if_high_loss
    (lookup ~kind:Decision.Leaf ~history:1 ~bw);
  List.iter
    (fun h ->
      Alcotest.check action
        (Printf.sprintf "h%d maintain" h)
        Decision.Maintain_demand
        (lookup ~kind:Decision.Leaf ~history:h ~bw))
    [ 2; 4; 5; 6 ];
  Alcotest.check action "h3 reduce to old supply"
    (Decision.Reduce_to_supply Decision.Older)
    (lookup ~kind:Decision.Leaf ~history:3 ~bw);
  Alcotest.check action "h7 halve + backoff"
    (Decision.Reduce_to_half_supply
       { which = Decision.Older; set_backoff = true })
    (lookup ~kind:Decision.Leaf ~history:7 ~bw)

let test_leaf_equal_rows () =
  let bw = Decision.Equal in
  List.iter
    (fun h ->
      Alcotest.check action
        (Printf.sprintf "h%d add" h)
        Decision.Add_next_layer
        (lookup ~kind:Decision.Leaf ~history:h ~bw))
    [ 0; 4 ];
  List.iter
    (fun h ->
      Alcotest.check action
        (Printf.sprintf "h%d maintain" h)
        Decision.Maintain_demand
        (lookup ~kind:Decision.Leaf ~history:h ~bw))
    [ 1; 2; 5; 6 ];
  List.iter
    (fun h ->
      Alcotest.check action
        (Printf.sprintf "h%d halve" h)
        (Decision.Reduce_to_half_supply
           { which = Decision.Older; set_backoff = true })
        (lookup ~kind:Decision.Leaf ~history:h ~bw))
    [ 3; 7 ]

let test_leaf_greater_rows () =
  let bw = Decision.Greater in
  Alcotest.check action "h0 add" Decision.Add_next_layer
    (lookup ~kind:Decision.Leaf ~history:0 ~bw);
  List.iter
    (fun h ->
      Alcotest.check action
        (Printf.sprintf "h%d maintain" h)
        Decision.Maintain_demand
        (lookup ~kind:Decision.Leaf ~history:h ~bw))
    [ 1; 2; 4; 5; 6 ];
  List.iter
    (fun h ->
      Alcotest.check action
        (Printf.sprintf "h%d conditional halve" h)
        (Decision.Reduce_to_half_supply_if_very_high_loss Decision.Older)
        (lookup ~kind:Decision.Leaf ~history:h ~bw))
    [ 3; 7 ]

let test_internal_rows () =
  List.iter
    (fun bw ->
      List.iter
        (fun h ->
          Alcotest.check action "h0/4 accept" Decision.Accept_children
            (lookup ~kind:Decision.Internal ~history:h ~bw))
        [ 0; 4 ];
      List.iter
        (fun h ->
          Alcotest.check action "h2/3/6 maintain" Decision.Maintain_demand
            (lookup ~kind:Decision.Internal ~history:h ~bw))
        [ 2; 3; 6 ])
    [ Decision.Lesser; Decision.Equal; Decision.Greater ];
  List.iter
    (fun h ->
      Alcotest.check action "greater halves recent"
        (Decision.Reduce_to_half_supply
           { which = Decision.Recent; set_backoff = false })
        (lookup ~kind:Decision.Internal ~history:h ~bw:Decision.Greater);
      List.iter
        (fun bw ->
          Alcotest.check action "equal/lesser halves older"
            (Decision.Reduce_to_half_supply
               { which = Decision.Older; set_backoff = false })
            (lookup ~kind:Decision.Internal ~history:h ~bw))
        [ Decision.Equal; Decision.Lesser ])
    [ 1; 5; 7 ]

let test_lookup_total_and_bounded () =
  List.iter
    (fun kind ->
      List.iter
        (fun bw ->
          for h = 0 to 7 do
            ignore (lookup ~kind ~history:h ~bw)
          done)
        [ Decision.Lesser; Decision.Equal; Decision.Greater ])
    [ Decision.Leaf; Decision.Internal ];
  checkb "history 8 rejected" true
    (try
       ignore (lookup ~kind:Decision.Leaf ~history:8 ~bw:Decision.Equal);
       false
     with Invalid_argument _ -> true)

let test_classify_bw () =
  let c = Decision.classify_bw ~tolerance:0.1 in
  checkb "equal within tolerance" true (c ~older:100.0 ~recent:105.0 = Decision.Equal);
  checkb "lesser" true (c ~older:50.0 ~recent:100.0 = Decision.Lesser);
  checkb "greater" true (c ~older:100.0 ~recent:50.0 = Decision.Greater);
  checkb "two silent windows equal" true (c ~older:0.0 ~recent:0.0 = Decision.Equal)

(* ---------- Tree ---------- *)

let test_tree_structure () =
  let tree = tree_of (two_branch ()) in
  let node = Tree.node tree and ix = Tree.index tree in
  checki "node count" 8 (Tree.size tree);
  checki "source" 0 (node 0);
  checki "source parent" (-1) (Tree.parent tree 0);
  checki "parent of 4" 2 (node (Tree.parent tree (ix 4)));
  Alcotest.check (Alcotest.list Alcotest.int) "children of 1" [ 2; 3 ]
    (List.map node (children tree (ix 1)));
  checkb "leaf" true (Tree.is_leaf tree (ix 7));
  checkb "internal" false (Tree.is_leaf tree (ix 3));
  Alcotest.check (Alcotest.list Alcotest.int) "ancestors of 5" [ 2; 1; 0 ]
    (List.map node (ancestors tree (ix 5)));
  checki "absent node" (-1) (ix 99)

let test_tree_orders () =
  let tree = tree_of (two_branch ()) in
  let n = Tree.size tree in
  checki "top-down starts at source" 0 (Tree.node tree 0);
  Alcotest.check (Alcotest.list Alcotest.int) "BFS, siblings in edge order"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.init n (Tree.node tree));
  (* Every parent appears before its children, so a walk down the
     indices (bottom-up) reaches every child before its parent. *)
  for i = 1 to n - 1 do
    checkb "parent first" true (Tree.parent tree i < i)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun c -> checkb "bottom-up reaches children first" true (c > i))
      (children tree i)
  done

let test_tree_members_restricted () =
  (* A member not attached to the tree is dropped. *)
  let snap = two_branch ~levels:[ (4, 3); (99, 1) ] () in
  let tree = tree_of snap in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "ghost member dropped" [ (4, 3) ] (Tree.members tree);
  checkb "member flag" true (Tree.is_member tree (Tree.index tree 4));
  checkb "non-member flag" false (Tree.is_member tree (Tree.index tree 5))

let test_tree_rejects_non_tree () =
  let snap =
    snapshot
      ~edges:[ (0, 1, [ 0 ]); (0, 2, [ 0 ]); (1, 2, [ 0 ]) ]
      ~members:[] ()
  in
  checkb "two parents rejected" true (Tree.of_snapshot snap = None)

(* ---------- Backoff ---------- *)

let test_backoff_lifecycle () =
  let rng = Engine.Prng.create ~seed:1L in
  let b = Backoff.create ~rng in
  let now = Time.of_sec 100 in
  checkb "inactive" false (Backoff.active b ~session:0 ~node:4 ~layer:2 ~now);
  Backoff.arm b ~session:0 ~node:4 ~layer:2 ~now;
  checkb "active" true (Backoff.active b ~session:0 ~node:4 ~layer:2 ~now);
  checkb "other layer inactive" false
    (Backoff.active b ~session:0 ~node:4 ~layer:3 ~now);
  checkb "other session inactive" false
    (Backoff.active b ~session:1 ~node:4 ~layer:2 ~now);
  (* Expires within backoff_max. *)
  let later = Time.add now (Params.backoff_max + 1) in
  checkb "expired" false
    (Backoff.active b ~session:0 ~node:4 ~layer:2 ~now:later);
  (* Still active at backoff_min - epsilon. *)
  let soon = Time.add now (Params.backoff_min - 1) in
  checkb "still before min" true
    (Backoff.active b ~session:0 ~node:4 ~layer:2 ~now:soon)

let test_backoff_blocks_path () =
  let rng = Engine.Prng.create ~seed:1L in
  let b = Backoff.create ~rng in
  let tree = tree_of (two_branch ()) in
  let leaf = Tree.index tree in
  let now = Time.zero in
  Backoff.arm b ~session:0 ~node:2 ~layer:4 ~now;
  checkb "ancestor blocks leaf 4" true
    (Backoff.blocked_on_path b ~session:0 ~tree ~leaf:(leaf 4) ~layer:4 ~now);
  checkb "ancestor blocks leaf 5" true
    (Backoff.blocked_on_path b ~session:0 ~tree ~leaf:(leaf 5) ~layer:4 ~now);
  checkb "other branch clear" false
    (Backoff.blocked_on_path b ~session:0 ~tree ~leaf:(leaf 6) ~layer:4 ~now)

(* A deeper chain: 0 -> 1 -> 2 -> 3 -> {8 -> 4, 9 -> 5}. Arming at each
   depth must block exactly the leaves whose root-path crosses the armed
   node, and only for the armed layer. *)
let test_backoff_multi_level_tree () =
  let rng = Engine.Prng.create ~seed:7L in
  (* Each phase arms one node on a fresh set of timers. *)
  let b = ref (Backoff.create ~rng) in
  let fresh () = b := Backoff.create ~rng in
  let tree =
    tree_of
      (snapshot
         ~edges:
           [
             (0, 1, [ 0 ]);
             (1, 2, [ 0 ]);
             (2, 3, [ 0 ]);
             (3, 8, [ 0 ]);
             (3, 9, [ 0 ]);
             (8, 4, [ 0 ]);
             (9, 5, [ 0 ]);
           ]
         ~members:[ (4, 3); (5, 3) ] ())
  in
  let now = Time.zero in
  let blocked leaf layer =
    Backoff.blocked_on_path !b ~session:0 ~tree ~leaf:(Tree.index tree leaf)
      ~layer ~now
  in
  (* Root-armed: every leaf is behind it. *)
  Backoff.arm !b ~session:0 ~node:0 ~layer:2 ~now;
  checkb "root blocks leaf 4" true (blocked 4 2);
  checkb "root blocks leaf 5" true (blocked 5 2);
  checkb "but only the armed layer" false (blocked 4 3);
  fresh ();
  (* Armed three levels down, above the split: still blocks both. *)
  Backoff.arm !b ~session:0 ~node:3 ~layer:2 ~now;
  checkb "mid-chain blocks leaf 4" true (blocked 4 2);
  checkb "mid-chain blocks leaf 5" true (blocked 5 2);
  fresh ();
  (* Armed below the split: blocks only the leaf behind it. *)
  Backoff.arm !b ~session:0 ~node:8 ~layer:2 ~now;
  checkb "deep parent blocks its leaf" true (blocked 4 2);
  checkb "sibling subtree stays clear" false (blocked 5 2);
  fresh ();
  (* Armed at the leaf itself. *)
  Backoff.arm !b ~session:0 ~node:5 ~layer:2 ~now;
  checkb "leaf blocks itself" true (blocked 5 2);
  checkb "cousin leaf clear" false (blocked 4 2)

(* ---------- Congestion ---------- *)

(* Stage 1 with measures given by node id. *)
let verdicts_of ~measures snap =
  let tree = tree_of snap in
  let v = Congestion.create (Tree.size tree) in
  List.iter
    (fun (node, (l, b)) ->
      let i = Tree.index tree node in
      v.loss.(i) <- l;
      v.max_bytes.(i) <- b)
    measures;
  Congestion.compute ~tree v;
  (tree, v)

let test_congestion_clean () =
  let tree, v =
    verdicts_of
      ~measures:[ (4, (0.0, 100)); (5, (0.0, 90)); (6, (0.0, 50)); (7, (0.0, 40)) ]
      (two_branch ())
  in
  Array.iteri
    (fun i congested ->
      checkb (Printf.sprintf "n%d clear" (Tree.node tree i)) false congested)
    v.Congestion.congested

let test_congestion_leaf_threshold () =
  let tree, v =
    verdicts_of
      ~measures:[ (4, (0.05, 10)); (5, (0.0, 10)); (6, (0.0, 10)); (7, (0.0, 10)) ]
      (two_branch ())
  in
  checkb "lossy leaf congested" true v.Congestion.congested.(Tree.index tree 4);
  checkb "clean sibling not" false v.Congestion.congested.(Tree.index tree 5);
  checkb "parent not congested (dissimilar)" false
    v.Congestion.congested.(Tree.index tree 2)

let test_congestion_similar_siblings () =
  let tree, v =
    verdicts_of
      ~measures:
        [ (4, (0.40, 10)); (5, (0.45, 12)); (6, (0.0, 10)); (7, (0.0, 10)) ]
      (two_branch ())
  in
  checkb "shared parent congested" true
    v.Congestion.congested.(Tree.index tree 2);
  checkb "self evidence" true v.Congestion.self_congested.(Tree.index tree 2);
  checkb "other branch clear" false v.Congestion.congested.(Tree.index tree 3)

let test_congestion_dissimilar_siblings () =
  let tree, v =
    verdicts_of
      ~measures:
        [ (4, (0.10, 10)); (5, (0.90, 12)); (6, (0.0, 10)); (7, (0.0, 10)) ]
      (two_branch ())
  in
  checkb "dissimilar: parent not self-congested" false
    v.Congestion.self_congested.(Tree.index tree 2)

let test_congestion_single_child_chain () =
  (* 0 -> 1 -> 2 -> 3(leaf, lossy): no chain node may self-detect. *)
  let snap =
    snapshot
      ~edges:[ (0, 1, [ 0 ]); (1, 2, [ 0 ]); (2, 3, [ 0 ]) ]
      ~members:[ (3, 2) ] ()
  in
  let tree, v = verdicts_of ~measures:[ (3, (0.5, 10)) ] snap in
  checkb "leaf congested" true v.Congestion.congested.(Tree.index tree 3);
  checkb "chain parent not" false v.Congestion.congested.(Tree.index tree 2);
  checkb "source not" false v.Congestion.congested.(Tree.index tree 0)

let test_congestion_min_loss_propagation () =
  let tree, v =
    verdicts_of
      ~measures:
        [ (4, (0.40, 10)); (5, (0.45, 12)); (6, (0.30, 10)); (7, (0.20, 10)) ]
      (two_branch ())
  in
  checkf "min at 2" 0.40 v.Congestion.loss.(Tree.index tree 2);
  checkf "min at 3" 0.20 v.Congestion.loss.(Tree.index tree 3);
  checkf "min at 1" 0.20 v.Congestion.loss.(Tree.index tree 1)

let test_congestion_parent_inheritance () =
  let tree, v =
    verdicts_of
      ~measures:
        [ (4, (0.40, 10)); (5, (0.45, 12)); (6, (0.0, 10)); (7, (0.0, 10)) ]
      (two_branch ())
  in
  (* 2 is self-congested; its children inherit. *)
  checkb "leaf 4 congested" true v.Congestion.congested.(Tree.index tree 4);
  checkb "leaf 5 congested" true v.Congestion.congested.(Tree.index tree 5);
  (* 5's loss was 0.45 > threshold -> also self. 4 likewise. *)
  checkb "inheritance does not leak across branches" false
    v.Congestion.congested.(Tree.index tree 6)

let test_congestion_max_bytes () =
  let tree, v =
    verdicts_of
      ~measures:
        [ (4, (0.0, 100)); (5, (0.0, 300)); (6, (0.0, 50)); (7, (0.0, 70)) ]
      (two_branch ())
  in
  checki "subtree max at 2" 300 v.Congestion.max_bytes.(Tree.index tree 2);
  checki "subtree max at 3" 70 v.Congestion.max_bytes.(Tree.index tree 3);
  checki "root sees global max" 300 v.Congestion.max_bytes.(Tree.index tree 0)

let test_congestion_missing_measure () =
  let tree, v = verdicts_of ~measures:[] (two_branch ()) in
  checkb "no reports -> lossless" false
    v.Congestion.congested.(Tree.index tree 4);
  checki "no bytes" 0 v.Congestion.max_bytes.(Tree.index tree 1)

(* ---------- Capacity ---------- *)

let e01 = Tree.edge ~parent:0 ~child:1

(* One interval's evidence for an edge: [sessions] as (session, loss,
   bytes), newest first, pooled and observed. *)
let observe c ~edge ?(dest_internal = true) ?(dest_self_congested = true)
    sessions =
  let e = Capacity.entry c ~edge in
  List.iter
    (fun (session, loss, bytes) ->
      Capacity.pool e ~session ~loss ~bytes ~internal:dest_internal
        ~self_congested:dest_self_congested)
    (List.rev sessions);
  Capacity.observe_pooled c e ~interval_s:2.0

let test_capacity_starts_unknown () =
  let c = Capacity.create ~params in
  checkb "infinite" true (Capacity.estimate_bps c ~edge:e01 = infinity)

let test_capacity_pins_on_evidence () =
  let c = Capacity.create ~params in
  (* 25_000 bytes over 2 s = 100 kbit/s. *)
  observe c ~edge:e01 [ (0, 0.5, 25_000) ];
  checkf "pinned at observed" 100_000.0 (Capacity.estimate_bps c ~edge:e01);
  Alcotest.check (Alcotest.list Alcotest.int) "known edges" [ e01 ]
    (Capacity.known_edges c)

let test_capacity_needs_all_sessions_lossy () =
  let c = Capacity.create ~params in
  observe c ~edge:e01 [ (0, 0.5, 25_000); (1, 0.0, 30_000) ];
  checkb "one clean session blocks" true
    (Capacity.estimate_bps c ~edge:e01 = infinity)

let test_capacity_leaf_dest_never_pins () =
  let c = Capacity.create ~params in
  observe c ~edge:e01 ~dest_internal:false [ (0, 0.5, 25_000) ];
  checkb "single-session leaf edge unpinned" true
    (Capacity.estimate_bps c ~edge:e01 = infinity);
  (* Two sessions losing together at the same leaf DO measure the link. *)
  observe c ~edge:e01 ~dest_internal:false ~dest_self_congested:false
    [ (0, 0.5, 12_000); (1, 0.4, 13_000) ];
  checkf "multi-session leaf pin" 100_000.0 (Capacity.estimate_bps c ~edge:e01)

let test_capacity_localization () =
  let c = Capacity.create ~params in
  (* Single session, dest not self-congested: no pin. *)
  observe c ~edge:e01 ~dest_self_congested:false [ (0, 0.5, 25_000) ];
  checkb "unlocalized single session" true
    (Capacity.estimate_bps c ~edge:e01 = infinity);
  (* Two lossy sessions pin even without self-congestion. *)
  observe c ~edge:e01 ~dest_self_congested:false
    [ (0, 0.5, 25_000); (1, 0.4, 25_000) ];
  checkf "multi-session pin" 200_000.0 (Capacity.estimate_bps c ~edge:e01)

let test_capacity_growth_and_reset () =
  let c = Capacity.create ~params in
  observe c ~edge:e01 [ (0, 0.5, 25_000) ];
  (* One clean low-usage interval: slow growth. *)
  observe c ~edge:e01 [ (0, 0.0, 1_000) ];
  checkf "2% growth" (100_000.0 *. 1.02) (Capacity.estimate_bps c ~edge:e01);
  (* Saturating and loss-free: fast growth. *)
  observe c ~edge:e01 [ (0, 0.0, 25_000) ];
  checkf "15% growth" (100_000.0 *. 1.02 *. 1.15)
    (Capacity.estimate_bps c ~edge:e01);
  (* After capacity_reset_intervals quiet intervals, back to unknown. *)
  for _ = 1 to params.Params.capacity_reset_intervals do
    observe c ~edge:e01 [ (0, 0.0, 1_000) ]
  done;
  checkb "reset" true (Capacity.estimate_bps c ~edge:e01 = infinity)

let test_capacity_pin_uses_recent_best () =
  let c = Capacity.create ~params in
  (* Clean interval at 200 kbit/s, then a lossy one measured at only
     100 kbit/s: the pin must remember the better recent throughput. *)
  observe c ~edge:e01 [ (0, 0.0, 50_000) ];
  observe c ~edge:e01 [ (0, 0.5, 25_000) ];
  checkf "pin at best recent" 200_000.0 (Capacity.estimate_bps c ~edge:e01)

(* ---------- Fair share ---------- *)

(* [Fair_share.compute] over paper-layered sessions with estimates
   keyed by edge: the caps arrays, in session order. *)
let fair_caps ~capacity sessions =
  let ctxs =
    List.map
      (fun (id, tree) ->
        {
          Fair_share.id;
          layering = Layering.paper_default;
          tree;
          capacity = (fun i -> capacity ~edge:(Tree.edge_into tree i));
          caps = Array.make (Tree.size tree) nan;
        })
      sessions
  in
  Fair_share.compute ctxs;
  List.map (fun (c : Fair_share.session_ctx) -> c.caps) ctxs

(* Session [session]'s cap on the edge into [child], read from
   [Fair_share.compute]'s per-session arrays. *)
let cap_into ~trees caps ~session ~child =
  (List.nth caps session).(Tree.index (List.nth trees session) child)

(* Two chain sessions sharing edge (1,2); session 0 has a 250 Kbps
   bottleneck below, session 1 is open-ended. This is the paper's
   motivating example for the proportional rule. *)
let fair_world ~shared_cap =
  let tree_of ~session =
    tree_of
      (snapshot ~session
         ~edges:[ (0, 1, [ 0 ]); (1, 2, [ 0 ]); (2, 30 + session, [ 0 ]) ]
         ~members:[ (30 + session, 1) ] ())
  in
  let t0 = tree_of ~session:0 and t1 = tree_of ~session:1 in
  let caps =
    [
      (Tree.edge ~parent:1 ~child:2, shared_cap);
      (Tree.edge ~parent:2 ~child:30, 250_000.0);
    ]
    (* session 1's last hop unconstrained *)
  in
  let capacity ~edge =
    Option.value ~default:infinity (List.assoc_opt edge caps)
  in
  let shares = fair_caps ~capacity [ (0, t0); (1, t1) ] in
  cap_into ~trees:[ t0; t1 ] shares

let test_fair_share_proportional () =
  (* Shared capacity 1.25 Mbps; x0 is capped by its 250 Kbps downstream
     bottleneck (224 Kbps in whole layers), x1 by the shared headroom. *)
  let shares = fair_world ~shared_cap:1_250_000.0 in
  let c0 = shares ~session:0 ~child:2 in
  let c1 = shares ~session:1 ~child:2 in
  checkb "session 1 gets much more" true (c1 > (2.0 *. c0));
  checkb "session 0 at least its bottleneck-worth" true (c0 >= 224_000.0 *. 0.8);
  checkb "caps within capacity" true (c0 <= 1_250_000.0 && c1 <= 1_250_000.0)

let test_fair_share_single_session_gets_link () =
  let t0 =
    tree_of
      (snapshot ~edges:[ (0, 1, [ 0 ]); (1, 2, [ 0 ]) ] ~members:[ (2, 1) ] ())
  in
  let capacity ~edge = if edge = e01 then 400_000.0 else infinity in
  let shares =
    cap_into ~trees:[ t0 ] (fair_caps ~capacity [ (0, t0) ])
  in
  checkf "whole link" 400_000.0 (shares ~session:0 ~child:1);
  checkb "unknown edge uncapped" true (shares ~session:0 ~child:2 = infinity)

let test_fair_share_base_floor () =
  (* Tiny shared link: every session still gets at least the base rate. *)
  let shares = fair_world ~shared_cap:40_000.0 in
  checkb "floor s0" true (shares ~session:0 ~child:2 >= 32_000.0);
  checkb "floor s1" true (shares ~session:1 ~child:2 >= 32_000.0)

(* ---------- Algorithm (stage 5 behaviour through the public API) ---------- *)

let mk_algorithm () =
  Algorithm.create ~params ~rng:(Engine.Prng.create ~seed:9L)

let chain_input ?(loss = 0.0) ?(bytes = 8_000) ?(level = 1)
    ?(may_add = fun _ -> true) ?(frozen = fun _ -> false) () =
  let tree =
    tree_of
      (snapshot
         ~edges:[ (0, 1, [ 0 ]); (1, 2, [ 0 ]); (1, 3, [ 0 ]) ]
         ~members:[ (2, level); (3, level) ]
         ())
  in
  {
    Algorithm.id = 0;
    layering = Layering.paper_default;
    tree;
    measures = [ (2, (loss, bytes)); (3, (loss, bytes)) ];
    levels = [ (2, level); (3, level) ];
    recipients = [ 2; 3 ];
    may_add;
    frozen;
  }

let prescriptions_for algo ~now input = Algorithm.step algo ~now [ input ]

let test_algorithm_probes_up () =
  let algo = mk_algorithm () in
  let p =
    prescriptions_for algo ~now:(Time.of_sec 2) (chain_input ~level:1 ())
  in
  List.iter
    (fun (pr : Algorithm.prescription) -> checki "level 2 prescribed" 2 pr.level)
    p;
  checki "two receivers" 2 (List.length p)

let test_algorithm_add_gate_blocks () =
  let algo = mk_algorithm () in
  let p =
    prescriptions_for algo ~now:(Time.of_sec 2)
      (chain_input ~level:1 ~may_add:(fun _ -> false) ())
  in
  List.iter
    (fun (pr : Algorithm.prescription) -> checki "held at 1" 1 pr.level)
    p

let test_algorithm_drop_on_heavy_loss () =
  let algo = mk_algorithm () in
  (* Establish clean history at level 4 first. *)
  ignore
    (prescriptions_for algo ~now:(Time.of_sec 2)
       (chain_input ~level:4 ~bytes:120_000 ~may_add:(fun _ -> false) ()));
  ignore
    (prescriptions_for algo ~now:(Time.of_sec 4)
       (chain_input ~level:4 ~bytes:120_000 ~may_add:(fun _ -> false) ()));
  (* Now heavy loss: both siblings similar -> internal acts; prescriptions
     must come down. *)
  let p =
    prescriptions_for algo ~now:(Time.of_sec 6)
      (chain_input ~level:4 ~loss:0.5 ~bytes:60_000 ~may_add:(fun _ -> false)
         ())
  in
  List.iter
    (fun (pr : Algorithm.prescription) ->
      checkb (Printf.sprintf "reduced (%d)" pr.level) true (pr.level < 4))
    p

let test_algorithm_frozen_leaf_holds () =
  let algo = mk_algorithm () in
  ignore
    (prescriptions_for algo ~now:(Time.of_sec 2)
       (chain_input ~level:3 ~bytes:60_000 ~may_add:(fun _ -> false) ()));
  ignore
    (prescriptions_for algo ~now:(Time.of_sec 4)
       (chain_input ~level:3 ~bytes:60_000 ~may_add:(fun _ -> false) ()));
  let p =
    prescriptions_for algo ~now:(Time.of_sec 6)
      (chain_input ~level:3 ~loss:0.5 ~bytes:30_000
         ~may_add:(fun _ -> false)
         ~frozen:(fun _ -> true)
         ())
  in
  List.iter
    (fun (pr : Algorithm.prescription) -> checki "frozen holds" 3 pr.level)
    p

let test_algorithm_capacity_estimate_appears () =
  let algo = mk_algorithm () in
  ignore
    (prescriptions_for algo ~now:(Time.of_sec 2)
       (chain_input ~level:4 ~bytes:120_000 ~may_add:(fun _ -> false) ()));
  checkb "no estimate while clean" true
    (Algorithm.capacity_estimate algo ~edge:e01 = infinity);
  ignore
    (prescriptions_for algo ~now:(Time.of_sec 4)
       (chain_input ~level:4 ~loss:0.5 ~bytes:60_000 ~may_add:(fun _ -> false)
          ()));
  (* Edge (0,1): dest 1 is internal with two similar lossy children. *)
  let e = Algorithm.capacity_estimate algo ~edge:e01 in
  checkb "estimate pinned" true (Float.is_finite e);
  (* best recent observation: 120000 B over 2 s = 480 kbit/s *)
  checkf "value from best recent" 480_000.0 e

(* Controller interval cost per tree node. A source, 20 routers and
   10,000 leaves, 3 of them reporting and prescribed to, after 3
   warm-up intervals.
   - Built afresh, as for a snapshot whose shape changed: building the
     tree and its view and running one step allocates 48.8 words per
     node, on arrays indexed by the tree's BFS numbering. The bound
     fails if the stages go back to tuple-keyed polymorphic tables (413
     words per node) or if stage 5 prescribes to every silent member
     (140).
   - Kept, as for an unchanged snapshot: the tree and the view stand, so
     one step allocates 21.1 words per node, most of it the per-edge
     evidence stage 2 pools and boxed floats in stage 5. The bound fails
     if a kept interval goes back to building the tree, its index table
     and the view's handles (22 more). *)
let test_interval_footprint () =
  let routers = 20 and per_router = 500 in
  let leaf r k = 1 + routers + (r * per_router) + k in
  let edges =
    List.init routers (fun r -> (0, 1 + r, [ 0 ]))
    @ List.concat
        (List.init routers (fun r ->
             List.init per_router (fun k -> (1 + r, leaf r k, [ 0 ]))))
  in
  let members =
    List.concat
      (List.init routers (fun r ->
           List.init per_router (fun k -> (leaf r k, 1))))
  in
  let snap = snapshot ~edges ~members () in
  let reporting = [ leaf 0 0; leaf 7 250; leaf 19 499 ] in
  let nodes = 1 + routers + (routers * per_router) in
  let words_per_node ~tree_of =
    let algo = mk_algorithm () in
    let interval k =
      let tree = tree_of () in
      ignore
        (Algorithm.step algo ~now:(Time.of_sec (2 * k))
           [
             {
               Algorithm.id = 0;
               layering = Layering.paper_default;
               tree;
               measures = List.map (fun n -> (n, (0.01, 8_000))) reporting;
               levels = List.map (fun n -> (n, 1)) reporting;
               recipients = reporting;
               may_add = (fun n -> List.mem n reporting);
               frozen = (fun _ -> false);
             };
           ])
    in
    for k = 1 to 3 do
      interval k
    done;
    (* counts the minor heap exactly only right after a minor collection *)
    let allocated () =
      Gc.minor ();
      Gc.allocated_bytes ()
    in
    let before = allocated () in
    interval 4;
    let bytes = allocated () -. before in
    bytes /. float_of_int (Sys.word_size / 8 * nodes)
  in
  let fresh = words_per_node ~tree_of:(fun () -> tree_of snap) in
  checkb
    (Printf.sprintf "built afresh: %.0f words per tree node, at most 120" fresh)
    true (fresh <= 120.0);
  let kept =
    let prev = ref None in
    words_per_node ~tree_of:(fun () ->
        let tree = Option.get (Tree.of_snapshot ?prev:!prev snap) in
        prev := Some tree;
        tree)
  in
  checkb
    (Printf.sprintf "kept: %.0f words per tree node, at most 30" kept)
    true (kept <= 30.0)

let () =
  Alcotest.run "toposense"
    [
      ( "params",
        [
          Alcotest.test_case "default valid" `Quick test_params_default_valid;
          Alcotest.test_case "rejections" `Quick test_params_rejections;
        ] );
      ( "decision",
        [
          Alcotest.test_case "history bits" `Quick test_history_bits;
          Alcotest.test_case "leaf lesser" `Quick test_leaf_lesser_rows;
          Alcotest.test_case "leaf equal" `Quick test_leaf_equal_rows;
          Alcotest.test_case "leaf greater" `Quick test_leaf_greater_rows;
          Alcotest.test_case "internal" `Quick test_internal_rows;
          Alcotest.test_case "total" `Quick test_lookup_total_and_bounded;
          Alcotest.test_case "classify bw" `Quick test_classify_bw;
        ] );
      ( "tree",
        [
          Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "orders" `Quick test_tree_orders;
          Alcotest.test_case "members restricted" `Quick
            test_tree_members_restricted;
          Alcotest.test_case "rejects non-tree" `Quick test_tree_rejects_non_tree;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "lifecycle" `Quick test_backoff_lifecycle;
          Alcotest.test_case "path blocking" `Quick test_backoff_blocks_path;
          Alcotest.test_case "multi-level tree" `Quick
            test_backoff_multi_level_tree;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "clean" `Quick test_congestion_clean;
          Alcotest.test_case "leaf threshold" `Quick
            test_congestion_leaf_threshold;
          Alcotest.test_case "similar siblings" `Quick
            test_congestion_similar_siblings;
          Alcotest.test_case "dissimilar siblings" `Quick
            test_congestion_dissimilar_siblings;
          Alcotest.test_case "single-child chain" `Quick
            test_congestion_single_child_chain;
          Alcotest.test_case "min loss" `Quick test_congestion_min_loss_propagation;
          Alcotest.test_case "inheritance" `Quick
            test_congestion_parent_inheritance;
          Alcotest.test_case "max bytes" `Quick test_congestion_max_bytes;
          Alcotest.test_case "missing measure" `Quick
            test_congestion_missing_measure;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "starts unknown" `Quick test_capacity_starts_unknown;
          Alcotest.test_case "pins" `Quick test_capacity_pins_on_evidence;
          Alcotest.test_case "needs all lossy" `Quick
            test_capacity_needs_all_sessions_lossy;
          Alcotest.test_case "leaf dest" `Quick test_capacity_leaf_dest_never_pins;
          Alcotest.test_case "localization" `Quick test_capacity_localization;
          Alcotest.test_case "growth and reset" `Quick
            test_capacity_growth_and_reset;
          Alcotest.test_case "recent best" `Quick
            test_capacity_pin_uses_recent_best;
        ] );
      ( "fair-share",
        [
          Alcotest.test_case "proportional" `Quick test_fair_share_proportional;
          Alcotest.test_case "single session" `Quick
            test_fair_share_single_session_gets_link;
          Alcotest.test_case "base floor" `Quick test_fair_share_base_floor;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "probes up" `Quick test_algorithm_probes_up;
          Alcotest.test_case "add gate" `Quick test_algorithm_add_gate_blocks;
          Alcotest.test_case "drop on loss" `Quick
            test_algorithm_drop_on_heavy_loss;
          Alcotest.test_case "frozen holds" `Quick test_algorithm_frozen_leaf_holds;
          Alcotest.test_case "capacity estimate" `Quick
            test_algorithm_capacity_estimate_appears;
          Alcotest.test_case "interval footprint" `Quick
            test_interval_footprint;
        ] );
    ]
