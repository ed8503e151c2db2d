(* Property tests over randomly generated trees and workloads: invariants
   of the TopoSense stages and the simulator that must hold for *every*
   input, not just the paper's topologies. *)

module Time = Engine.Time
module Tree = Toposense.Tree
module Congestion = Toposense.Congestion
module Layering = Traffic.Layering

let params = Toposense.Params.default

(* Random tree snapshot: heap-shaped tree over n nodes (parent of i is
   (i-1)/2), members = all leaves, with levels drawn from gen. *)
let tree_gen =
  QCheck.Gen.(
    let* n = 3 -- 31 in
    let* levels = list_size (return n) (0 -- 6) in
    return (n, levels))

let snapshot_of (n, levels) =
  let edges =
    List.init (n - 1) (fun i ->
        let child = i + 1 in
        { Discovery.Snapshot.parent = (child - 1) / 2; child; layers = [ 0 ] })
  in
  let is_leaf v = (2 * v) + 1 >= n in
  let members =
    List.filteri (fun i _ -> is_leaf i) (List.mapi (fun i l -> (i, l)) levels)
    |> List.filter (fun (node, _) -> node <> 0)
    |> List.map (fun (node, l) -> (node, max 1 l))
  in
  {
    Discovery.Snapshot.session = 0;
    taken_at = Time.zero;
    source = 0;
    edges;
    members;
    versions = [||];
  }

let arbitrary_tree =
  QCheck.make
    ~print:(fun (n, _) -> Printf.sprintf "heap tree n=%d" n)
    tree_gen

(* Random loss per leaf derived deterministically from the node id and a
   salt, so the property is reproducible. *)
let loss_of ~salt node =
  let h = ((node * 2654435761) + salt) land 0xFFFF in
  float_of_int h /. 65536.0 /. 2.0 (* in [0, 0.5) *)

let bytes_of node = 1000 * ((node mod 7) + 1)

let tree_of snap = Option.get (Tree.of_snapshot snap)

let children tree i =
  List.init (Tree.child_count tree i) (fun k -> Tree.first_child tree i + k)

(* Stage 1 with every leaf measured by [loss_of] and [bytes_of]. *)
let congestion_of ~salt tree =
  let n = Tree.size tree in
  let v = Congestion.create n in
  for i = 0 to n - 1 do
    if Tree.is_leaf tree i then begin
      v.loss.(i) <- loss_of ~salt (Tree.node tree i);
      v.max_bytes.(i) <- bytes_of (Tree.node tree i)
    end
  done;
  Congestion.compute ~params ~tree v;
  v

let prop_congestion_invariants =
  QCheck.Test.make ~name:"congestion: min-loss, max-bytes, inheritance"
    ~count:100
    QCheck.(pair arbitrary_tree (int_bound 1000))
    (fun (spec, salt) ->
      let tree = tree_of (snapshot_of spec) in
      let v = congestion_of ~salt tree in
      List.for_all
        (fun i ->
          let children = children tree i in
          (* (1) internal loss = min of children; bytes = max. *)
          (match children with
          | [] -> true
          | cs ->
              let closses = List.map (fun c -> v.Congestion.loss.(c)) cs in
              let cbytes = List.map (fun c -> v.Congestion.max_bytes.(c)) cs in
              v.Congestion.loss.(i) = List.fold_left Float.min infinity closses
              && v.Congestion.max_bytes.(i) = List.fold_left max 0 cbytes)
          &&
          (* (2) congested nodes inherit downward. *)
          (match Tree.parent tree i with
          | p when p >= 0 && v.Congestion.congested.(p) ->
              v.Congestion.congested.(i)
          | _ -> true)
          &&
          (* (3) self-congestion requires >1 child or leaf status. *)
          ((not v.Congestion.self_congested.(i)) || List.length children <> 1))
        (List.init (Tree.size tree) Fun.id))

let prop_congestion_clean_tree_quiet =
  QCheck.Test.make ~name:"congestion: lossless leaves => nothing congested"
    ~count:50 arbitrary_tree
    (fun spec ->
      let tree = tree_of (snapshot_of spec) in
      let n = Tree.size tree in
      let v = Congestion.create n in
      for i = 0 to n - 1 do
        if Tree.is_leaf tree i then v.max_bytes.(i) <- 1000
      done;
      Congestion.compute ~params ~tree v;
      Array.for_all not v.Congestion.congested)

(* One session's input where every member reports and is prescribed
   to. *)
let full_input ~salt tree =
  let members = Tree.members tree in
  {
    Toposense.Algorithm.id = 0;
    layering = Layering.paper_default;
    tree;
    measures =
      List.map
        (fun (node, _) -> (node, (loss_of ~salt node, bytes_of node)))
        members;
    levels = members;
    recipients = List.map fst members;
    may_add = (fun _ -> true);
    frozen = (fun _ -> false);
  }

(* Algorithm.step output invariants on random trees and measures. *)
let prop_step_prescriptions_bounded =
  QCheck.Test.make
    ~name:"Algorithm.step: prescriptions within [0,6] and climb <= +1"
    ~count:60
    QCheck.(pair arbitrary_tree (int_bound 1000))
    (fun (spec, salt) ->
      let tree = tree_of (snapshot_of spec) in
      let algo =
        Toposense.Algorithm.create ~params
          ~rng:(Engine.Prng.create ~seed:(Int64.of_int salt))
      in
      let members = Tree.members tree in
      let prescriptions =
        Toposense.Algorithm.step algo ~now:(Time.of_sec 2)
          [ full_input ~salt tree ]
      in
      List.length prescriptions = List.length members
      && List.for_all
           (fun (p : Toposense.Algorithm.prescription) ->
             let current = List.assoc p.receiver members in
             p.level >= 0 && p.level <= 6 && p.level <= current + 1)
           prescriptions)

let prop_step_deterministic =
  QCheck.Test.make ~name:"Algorithm.step: deterministic for equal state"
    ~count:30
    QCheck.(pair arbitrary_tree (int_bound 1000))
    (fun (spec, salt) ->
      let run () =
        let tree = tree_of (snapshot_of spec) in
        let algo =
          Toposense.Algorithm.create ~params
            ~rng:(Engine.Prng.create ~seed:(Int64.of_int salt))
        in
        let input = full_input ~salt tree in
        List.concat_map
          (fun now ->
            List.map
              (fun (p : Toposense.Algorithm.prescription) ->
                (p.receiver, p.level))
              (Toposense.Algorithm.step algo ~now [ input ]))
          [ Time.of_sec 2; Time.of_sec 4; Time.of_sec 6 ]
      in
      run () = run ())

(* Tree.of_snapshot against Snapshot.is_tree and a reference walk. A
   random tree over scattered node ids, its edges shuffled, then at most
   one mutation spliced into the edge list. *)
type mutation =
  | Intact
  | Duplicate_child
  | Into_source
  | Detached_cycle
  | Unreachable_parent
  | Self_loop

let mutation_name = function
  | Intact -> "intact"
  | Duplicate_child -> "duplicate child"
  | Into_source -> "edge into the source"
  | Detached_cycle -> "detached cycle"
  | Unreachable_parent -> "unreachable parent"
  | Self_loop -> "self-loop"

let mutated_tree_gen =
  QCheck.Gen.(
    let* n = 1 -- 25 in
    let* ids = shuffle_l (List.init n (fun k -> (5 * k) + 2)) in
    let id = Array.of_list ids in
    let* parents = list_size (return (n - 1)) nat in
    let edges =
      List.mapi (fun k p -> (id.(p mod (k + 1)), id.(k + 1))) parents
    in
    let* edges = shuffle_l edges in
    let* member_mask = list_size (return n) bool in
    let* levels = list_size (return n) (1 -- 6) in
    let members =
      List.filteri (fun k _ -> List.nth member_mask k) (List.combine ids levels)
      @ [ (999, 1) ]
      |> List.sort compare
    in
    let* mutation =
      oneofl
        [
          Intact;
          Duplicate_child;
          Into_source;
          Detached_cycle;
          Unreachable_parent;
          Self_loop;
        ]
    in
    let* a = nat and* b = nat in
    let extra =
      match mutation with
      | Intact -> []
      | Duplicate_child when n = 1 -> [ (id.(0), 777); (id.(0), 777) ]
      | Duplicate_child -> [ (id.(a mod n), id.(1 + (b mod (n - 1)))) ]
      | Into_source -> [ (id.(a mod n), id.(0)) ]
      | Detached_cycle -> [ (900, 901); (901, 900) ]
      | Unreachable_parent -> [ (950, 951) ]
      | Self_loop -> [ (975, 975) ]
    in
    let* edges =
      List.fold_left
        (fun acc e ->
          let* edges = acc in
          let* pos = int_bound (List.length edges) in
          return
            (List.filteri (fun i _ -> i < pos) edges
            @ (e :: List.filteri (fun i _ -> i >= pos) edges)))
        (return edges) extra
    in
    let snap =
      {
        Discovery.Snapshot.session = 0;
        taken_at = Time.zero;
        source = id.(0);
        edges =
          List.map
            (fun (parent, child) ->
              { Discovery.Snapshot.parent; child; layers = [ 0 ] })
            edges;
        members;
        versions = [||];
      }
    in
    return (mutation, snap))

let arbitrary_mutated_tree =
  QCheck.make
    ~print:(fun (mutation, (snap : Discovery.Snapshot.t)) ->
      Printf.sprintf "%s: source %d, edges [%s]" (mutation_name mutation)
        snap.source
        (String.concat "; "
           (List.map
              (fun (e : Discovery.Snapshot.edge) ->
                Printf.sprintf "%d->%d" e.parent e.child)
              snap.edges)))
    mutated_tree_gen

(* The children of [p] in snapshot edge order, and the naive BFS over
   them; only run on snapshots [is_tree] accepts. *)
let snapshot_children (snap : Discovery.Snapshot.t) p =
  List.filter_map
    (fun (e : Discovery.Snapshot.edge) ->
      if e.parent = p then Some e.child else None)
    snap.edges

let reference_bfs (snap : Discovery.Snapshot.t) =
  let rec walk acc = function
    | [] -> List.rev acc
    | n :: rest -> walk (n :: acc) (rest @ snapshot_children snap n)
  in
  walk [] [ snap.source ]

let prop_tree_of_snapshot =
  QCheck.Test.make
    ~name:"Tree.of_snapshot: Some iff is_tree, BFS order as a reference walk"
    ~count:500 arbitrary_mutated_tree
    (fun (_, snap) ->
      match (Tree.of_snapshot snap, Discovery.Snapshot.is_tree snap) with
      | None, false -> true
      | Some _, false | None, true -> false
      | Some tree, true ->
          let order = reference_bfs snap in
          let all = List.init (Tree.size tree) Fun.id in
          let node = Tree.node tree in
          let reference_parent i =
            match
              List.find_opt
                (fun (e : Discovery.Snapshot.edge) -> e.child = node i)
                snap.edges
            with
            | None -> -1
            | Some e -> Option.get (List.find_index (( = ) e.parent) order)
          in
          List.map node all = order
          && List.for_all (fun i -> Tree.parent tree i = reference_parent i) all
          && List.for_all
               (fun i ->
                 List.map node (children tree i)
                 = snapshot_children snap (node i))
               all
          && List.for_all (fun i -> Tree.index tree (node i) = i) all
          && Tree.members tree
             = List.filter (fun (m, _) -> List.mem m order) snap.members
          && List.for_all
               (fun i ->
                 Tree.is_member tree i = List.mem_assoc (node i) snap.members)
               all)

(* Recipients are exact: two algorithms with the same seed see the same
   two sessions for several intervals, one prescribing to every member,
   the other to a random subset. Every interval, the subset run's
   prescriptions are the full run's restricted to the subset. *)
let prop_recipients_exact =
  QCheck.Test.make
    ~name:"Algorithm.step: prescriptions to a subset = full run restricted"
    ~count:60
    QCheck.(
      triple arbitrary_tree (int_bound 1000)
        (list_of_size Gen.(return 32) bool))
    (fun (spec, salt, mask) ->
      let mask = Array.of_list mask in
      let snap = snapshot_of spec in
      let trees =
        [ tree_of snap; tree_of { snap with Discovery.Snapshot.session = 1 } ]
      in
      let members = Tree.members (List.hd trees) in
      let subset = List.filter (fun (node, _) -> mask.(node mod 32)) members in
      let algo () =
        Toposense.Algorithm.create ~params
          ~rng:(Engine.Prng.create ~seed:(Int64.of_int salt))
      in
      let full = algo () and part = algo () in
      let levels = Array.make 2 members in
      (* A quarter of the reports lossy, the rest clean; bytes as the
         level delivers them over the 2 s interval. *)
      let measure ~k ~s (node, level) =
        let h = ((node * 7919) + (k * 104729) + (s * 31) + salt) land 0xFF in
        ( node,
          ( (if h < 64 then float_of_int h /. 128.0 else 0.0),
            int_of_float
              (Layering.cumulative_bps Layering.paper_default ~level /. 4.0) ) )
      in
      let inputs ~k ~recipients =
        List.mapi
          (fun s tree ->
            {
              Toposense.Algorithm.id = s;
              layering = Layering.paper_default;
              tree;
              measures = List.map (measure ~k ~s) levels.(s);
              levels = levels.(s);
              recipients = List.map fst recipients;
              may_add = (fun node -> (node + k) mod 4 <> 0);
              frozen = (fun node -> (node + k + s) mod 7 = 0);
            })
          trees
      in
      List.for_all
        (fun k ->
          let now = Time.of_sec (2 * k) in
          let step algo recipients =
            Toposense.Algorithm.step algo ~now (inputs ~k ~recipients)
          in
          let all = step full members and some = step part subset in
          for s = 0 to 1 do
            levels.(s) <-
              List.filter_map
                (fun (p : Toposense.Algorithm.prescription) ->
                  if p.session = s then Some (p.receiver, p.level) else None)
                all
          done;
          some
          = List.filter
              (fun (p : Toposense.Algorithm.prescription) ->
                List.mem_assoc p.receiver subset)
              all)
        (List.init 8 succ))

(* Simulator conservation: packets delivered at a multicast member never
   exceed packets sent, and every member sees a prefix-gap-free count
   after settling on a lossless network. *)
let prop_multicast_conservation =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = 3 -- 12 in
        let* members = list_size (1 -- 5) (int_range 1 (n - 1)) in
        let* packets = 1 -- 30 in
        return (n, List.sort_uniq Int.compare members, packets))
  in
  QCheck.Test.make ~name:"multicast: exactly-once delivery, no duplication"
    ~count:60 gen
    (fun (n, members, packets) ->
      let sim = Engine.Sim.create () in
      let topo = Net.Topology.create () in
      ignore (Net.Topology.add_nodes topo n);
      for i = 1 to n - 1 do
        Net.Topology.add_duplex topo ~a:i ~b:((i - 1) / 2) ~bandwidth_bps:1e7
          ~delay:(Time.span_of_ms 5) ()
      done;
      let nw = Net.Network.create ~sim topo in
      let router = Multicast.Router.create ~network:nw () in
      let g = Multicast.Router.fresh_group router ~source:0 in
      let counts = Array.make n 0 in
      for node = 0 to n - 1 do
        Net.Network.set_local_handler nw node (fun _ ->
            counts.(node) <- counts.(node) + 1)
      done;
      List.iter (fun node -> Multicast.Router.join router ~node ~group:g) members;
      Engine.Sim.run_until sim (Time.of_sec 2);
      for i = 1 to packets do
        Net.Network.originate nw ~src:0 ~dst:(Net.Addr.Multicast g) ~size:100
          ~payload:(Net.Packet.Data { session = 0; layer = 0; seq = i })
      done;
      Engine.Sim.run_until sim (Time.of_sec 5);
      List.for_all (fun node -> counts.(node) = packets) members
      && Array.for_all (fun c -> c = 0 || c = packets) counts)

(* ---------- views kept across intervals ---------- *)

(* One step of a random control-plane history on a k-ary world with
   cross links: a receiver's level moves, a link flaps, a node crashes
   or recovers. Grafts, prunes and repairs follow on their own as the
   step's time passes, and a capture can land mid-way through any of
   them. *)
type world_op =
  | Set_level of int * int  (* receiver position, level *)
  | Toggle_link of int  (* link position *)
  | Toggle_crash of int  (* node *)

let world_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun r l -> Set_level (r, l)) (0 -- 7) (0 -- 6));
        (2, map (fun k -> Toggle_link k) (0 -- 40));
        (1, map (fun n -> Toggle_crash n) (1 -- 14));
      ])

let world_op_print = function
  | Set_level (r, l) -> Printf.sprintf "level r%d=%d" r l
  | Toggle_link k -> Printf.sprintf "flap link %d" k
  | Toggle_crash n -> Printf.sprintf "crash/recover %d" n

let prop_capture_prev_is_fresh =
  QCheck.Test.make
    ~name:"Snapshot.capture ?prev equals a fresh capture after every step"
    ~count:200
    QCheck.(
      make
        ~print:
          Print.(list (pair world_op_print int))
        Gen.(list_size (5 -- 25) (pair world_op_gen (0 -- 1500))))
    (fun steps ->
      let spec = Scenarios.Builders.kary ~fanout:2 ~depth:3 () in
      let sim = Engine.Sim.create ~seed:5L () in
      let network = Net.Network.create ~sim spec.Scenarios.Builders.topology in
      let router = Multicast.Router.create ~network () in
      let faults = Net.Faults.create ~network () in
      Net.Faults.add_crash_observer faults (fun node ~up ->
          if up then Multicast.Router.recover_node router ~node
          else Multicast.Router.crash_node router ~node);
      let source, receivers =
        match spec.Scenarios.Builders.sessions with
        | [ s ] -> s
        | _ -> assert false
      in
      let receivers = Array.of_list receivers in
      let links = Array.of_list (Net.Topology.links spec.topology) in
      let session =
        Traffic.Session.create ~router ~source ~layering:Layering.paper_default
          ~id:4
      in
      let down = Hashtbl.create 8 in
      let capture ?prev () =
        Discovery.Snapshot.capture ?prev ~router ~session
          ~at:(Engine.Sim.now sim) ()
      in
      let same (a : Discovery.Snapshot.t) (b : Discovery.Snapshot.t) =
        a.session = b.session && a.taken_at = b.taken_at
        && a.source = b.source && a.edges = b.edges && a.members = b.members
        && a.versions = b.versions
      in
      let prev = ref (capture ()) in
      List.for_all
        (fun (op, wait_ms) ->
          (match op with
          | Set_level (r, level) ->
              let node = receivers.(r mod Array.length receivers) in
              if not (Net.Faults.node_is_crashed faults node) then
                Traffic.Session.set_subscription_level session ~router ~node
                  ~level
          | Toggle_link k ->
              let { Net.Topology.a; b; _ } = links.(k mod Array.length links) in
              if Hashtbl.mem down k then begin
                Hashtbl.remove down k;
                Net.Faults.link_up faults ~a ~b
              end
              else begin
                Hashtbl.add down k ();
                Net.Faults.link_down faults ~a ~b
              end
          | Toggle_crash node ->
              if Net.Faults.node_is_crashed faults node then
                Net.Faults.recover_node faults ~node
              else Net.Faults.crash_node faults ~node);
          Engine.Sim.run_until sim
            (Time.add (Engine.Sim.now sim) (Time.span_of_ms wait_ms));
          let kept = capture ~prev:!prev () in
          prev := kept;
          same kept (capture ()))
        steps)

(* Two algorithms, one seed, fed the same snapshots: one builds each
   tree from the last ([?prev], so its views keep their handles while
   the shape stands still), the other builds every tree afresh. Every
   interval a random change hits each session's image: none (the
   capture shared its lists), members only, a structurally equal but
   rebuilt edge list, or a grown or shrunk tree. Sessions share their
   heap-numbered edges, so stage 2 pools and stage 4 splits across
   them. *)
type image_change = Unchanged | New_members | Rebuilt | Grown | Shrunk

let image_change_gen =
  QCheck.Gen.frequencyl
    [ (4, Unchanged); (2, New_members); (1, Rebuilt); (1, Grown); (1, Shrunk) ]

let heap_edges n =
  List.init (n - 1) (fun i ->
      let child = i + 1 in
      { Discovery.Snapshot.parent = (child - 1) / 2; child; layers = [ 0 ] })

let heap_members n ~salt =
  List.filter_map
    (fun v ->
      if v > 0 && (2 * v) + 1 >= n then Some (v, 1 + ((v + salt) mod 6))
      else None)
    (List.init n Fun.id)

let prop_step_views_match_fresh =
  QCheck.Test.make
    ~name:"Algorithm.step over kept views = over fresh trees, every interval"
    ~count:200
    QCheck.(
      make
        ~print:(fun (sizes, _, seed) ->
          Printf.sprintf "sizes [%s] seed %d"
            (String.concat "; " (List.map string_of_int sizes))
            seed)
        Gen.(
          triple
            (list_size (1 -- 3) (2 -- 24))
            (list_size (4 -- 10) (pair image_change_gen (0 -- 1000)))
            (0 -- 1000)))
    (fun (sizes, changes, seed) ->
      let rng () = Engine.Prng.create ~seed:(Int64.of_int seed) in
      let kept = Toposense.Algorithm.create ~params ~rng:(rng ())
      and fresh = Toposense.Algorithm.create ~params ~rng:(rng ()) in
      let sessions =
        List.mapi
          (fun id n ->
            let snap =
              {
                Discovery.Snapshot.session = id;
                taken_at = Time.zero;
                source = 0;
                edges = heap_edges n;
                members = heap_members n ~salt:id;
                versions = [||];
              }
            in
            (id, ref n, ref snap, ref (tree_of snap)))
          sizes
      in
      let edges_seen = Hashtbl.create 64 in
      let clock = ref 0 in
      List.for_all
        (fun (change, salt) ->
          incr clock;
          let now = Time.of_sec (2 * !clock) in
          List.iter
            (fun (_, size, snap, _) ->
              let (s : Discovery.Snapshot.t) = !snap and n = !size in
              snap :=
                match change with
                | Unchanged -> { s with taken_at = now }
                | New_members ->
                    { s with taken_at = now; members = heap_members n ~salt }
                | Rebuilt -> { s with taken_at = now; edges = heap_edges n }
                | Grown | Shrunk ->
                    let n =
                      if change = Grown then min 30 (n + 1 + (salt mod 3))
                      else max 2 (n - 1 - (salt mod 3))
                    in
                    size := n;
                    {
                      s with
                      taken_at = now;
                      edges = heap_edges n;
                      members = heap_members n ~salt;
                    })
            sessions;
          let inputs tree_of_session =
            List.map
              (fun (id, _, snap, prev_tree) ->
                let tree = tree_of_session !snap prev_tree in
                for i = 1 to Tree.size tree - 1 do
                  Hashtbl.replace edges_seen (Tree.edge_into tree i) ()
                done;
                (* Losses from a small set, so siblings often agree and
                   capacities get pinned. *)
                let loss node =
                  match (node + salt + id) mod 4 with
                  | 0 -> 0.0
                  | 1 -> 0.2
                  | _ -> 0.21
                in
                let members = Tree.members tree in
                {
                  Toposense.Algorithm.id;
                  layering = Layering.paper_default;
                  tree;
                  measures =
                    List.filter_map
                      (fun (node, _) ->
                        (* some members stay silent this interval *)
                        if (node + salt) mod 5 = 0 then None
                        else Some (node, (loss node, bytes_of node)))
                      members;
                  levels = members;
                  recipients = List.map fst members;
                  may_add = (fun node -> (node + salt) mod 3 <> 0);
                  frozen = (fun node -> (node + salt) mod 7 = 0);
                })
              sessions
          in
          let kept_inputs =
            inputs (fun s prev ->
                let tree = Option.get (Tree.of_snapshot ~prev:!prev s) in
                prev := tree;
                tree)
          in
          let fresh_inputs = inputs (fun s _ -> tree_of s) in
          Toposense.Algorithm.step kept ~now kept_inputs
          = Toposense.Algorithm.step fresh ~now fresh_inputs
          && Hashtbl.fold
               (fun edge () ok ->
                 ok
                 && Toposense.Algorithm.capacity_estimate kept ~edge
                    = Toposense.Algorithm.capacity_estimate fresh ~edge)
               edges_seen true)
        changes)

let () =
  Alcotest.run "properties"
    [
      ( "random-trees",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_congestion_invariants;
            prop_congestion_clean_tree_quiet;
            prop_step_prescriptions_bounded;
            prop_step_deterministic;
            prop_tree_of_snapshot;
            prop_recipients_exact;
          ] );
      ( "simulator",
        List.map QCheck_alcotest.to_alcotest [ prop_multicast_conservation ] );
      ( "kept-views",
        List.map QCheck_alcotest.to_alcotest
          [ prop_capture_prev_is_fresh; prop_step_views_match_fresh ] );
    ]
