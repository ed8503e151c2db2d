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

let prop_congestion_invariants =
  QCheck.Test.make ~name:"congestion: min-loss, max-bytes, inheritance"
    ~count:100
    QCheck.(pair arbitrary_tree (int_bound 1000))
    (fun (spec, salt) ->
      let snap = snapshot_of spec in
      let tree = Tree.of_snapshot snap in
      let measure node =
        if Tree.is_leaf tree node then
          Some (loss_of ~salt node, bytes_of node)
        else None
      in
      let v = Congestion.compute ~params ~tree ~measure in
      List.for_all
        (fun node ->
          let verdict = Hashtbl.find v node in
          let children = Tree.children tree node in
          (* (1) internal loss = min of children; bytes = max. *)
          (match children with
          | [] -> true
          | cs ->
              let closses =
                List.map (fun c -> (Hashtbl.find v c).Congestion.loss) cs
              in
              let cbytes =
                List.map (fun c -> (Hashtbl.find v c).Congestion.max_bytes) cs
              in
              verdict.Congestion.loss = List.fold_left Float.min infinity closses
              && verdict.Congestion.max_bytes = List.fold_left max 0 cbytes)
          &&
          (* (2) congested nodes inherit downward. *)
          (match Tree.parent tree node with
          | Some p when (Hashtbl.find v p).Congestion.congested ->
              verdict.Congestion.congested
          | _ -> true)
          &&
          (* (3) self-congestion requires >1 child or leaf status. *)
          ((not verdict.Congestion.self_congested)
          || List.length children <> 1))
        (Tree.top_down tree))

let prop_congestion_clean_tree_quiet =
  QCheck.Test.make ~name:"congestion: lossless leaves => nothing congested"
    ~count:50 arbitrary_tree
    (fun spec ->
      let tree = Tree.of_snapshot (snapshot_of spec) in
      let v =
        Congestion.compute ~params ~tree ~measure:(fun node ->
            if Tree.is_leaf tree node then Some (0.0, 1000) else None)
      in
      Hashtbl.fold
        (fun _ verdict ok -> ok && not verdict.Congestion.congested)
        v true)

(* Algorithm.step output invariants on random trees and measures. *)
let prop_step_prescriptions_bounded =
  QCheck.Test.make
    ~name:"Algorithm.step: prescriptions within [0,6] and climb <= +1"
    ~count:60
    QCheck.(pair arbitrary_tree (int_bound 1000))
    (fun (spec, salt) ->
      let snap = snapshot_of spec in
      let tree = Tree.of_snapshot snap in
      let algo =
        Toposense.Algorithm.create ~params
          ~rng:(Engine.Prng.create ~seed:(Int64.of_int salt))
      in
      let members = Tree.members tree in
      let input =
        {
          Toposense.Algorithm.id = 0;
          layering = Layering.paper_default;
          tree;
          measures =
            List.map
              (fun (node, _) -> (node, (loss_of ~salt node, bytes_of node)))
              members;
          levels = members;
          may_add = (fun _ -> true);
          frozen = (fun _ -> false);
        }
      in
      let prescriptions =
        Toposense.Algorithm.step algo ~now:(Time.of_sec 2) [ input ]
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
        let snap = snapshot_of spec in
        let tree = Tree.of_snapshot snap in
        let algo =
          Toposense.Algorithm.create ~params
            ~rng:(Engine.Prng.create ~seed:(Int64.of_int salt))
        in
        let members = Tree.members tree in
        let input =
          {
            Toposense.Algorithm.id = 0;
            layering = Layering.paper_default;
            tree;
            measures =
              List.map
                (fun (node, _) -> (node, (loss_of ~salt node, bytes_of node)))
                members;
            levels = members;
            may_add = (fun _ -> true);
            frozen = (fun _ -> false);
          }
        in
        List.concat_map
          (fun now ->
            List.map
              (fun (p : Toposense.Algorithm.prescription) ->
                (p.receiver, p.level))
              (Toposense.Algorithm.step algo ~now [ input ]))
          [ Time.of_sec 2; Time.of_sec 4; Time.of_sec 6 ]
      in
      run () = run ())

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
          ] );
      ( "simulator",
        List.map QCheck_alcotest.to_alcotest [ prop_multicast_conservation ] );
    ]
