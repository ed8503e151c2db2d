(* Tests for multicast forwarding: tree construction, join/prune
   propagation, IGMP-style leave latency, and delivery correctness. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr
module Router = Multicast.Router

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

type Packet.payload += Media of int

let delay_ms = 10
let settle sim s = Sim.run_until sim (Time.add (Sim.now sim) (Time.span_of_sec_f s))

(* Star: 0 (source) - 1 (hub) - {2, 3, 4} leaves. *)
let star () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 5);
  List.iter
    (fun (a, b) ->
      Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e7
        ~delay:(Time.span_of_ms delay_ms) ())
    [ (0, 1); (1, 2); (1, 3); (1, 4) ];
  let nw = Network.create ~sim topo in
  let router = Router.create ~network:nw () in
  (sim, nw, router)

let count_deliveries nw node counter =
  Network.set_local_handler nw node (fun pkt ->
      match Packet.payload (Network.arena nw) pkt with
      | Media _ -> incr counter
      | _ -> ())

let send nw ~src ~group n =
  for i = 1 to n do
    Network.originate nw ~src ~dst:(Addr.Multicast group) ~size:1000
      ~payload:(Media i)
  done

let test_members_receive () =
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  let c2 = ref 0 and c3 = ref 0 and c4 = ref 0 in
  count_deliveries nw 2 c2;
  count_deliveries nw 3 c3;
  count_deliveries nw 4 c4;
  Router.join router ~node:2 ~group:g;
  Router.join router ~node:3 ~group:g;
  settle sim 1.0;
  send nw ~src:0 ~group:g 5;
  settle sim 1.0;
  checki "member 2" 5 !c2;
  checki "member 3" 5 !c3;
  checki "non-member 4" 0 !c4;
  checki "delivered counter" 10 (Router.delivered router ~group:g)

let test_single_copy_on_shared_link () =
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group:g;
  Router.join router ~node:3 ~group:g;
  Router.join router ~node:4 ~group:g;
  settle sim 1.0;
  send nw ~src:0 ~group:g 7;
  settle sim 1.0;
  let link01 = Network.link_on_iface nw ~node:0 ~iface:0 in
  checki "one copy per packet on 0->1" 7 (Net.Link.tx_packets link01)

let test_join_takes_hop_delays () =
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  let c2 = ref 0 in
  count_deliveries nw 2 c2;
  Router.join router ~node:2 ~group:g;
  (* Graft needs 2 hops x 10 ms; a packet sent immediately is lost. *)
  send nw ~src:0 ~group:g 1;
  settle sim 1.0;
  checki "too early" 0 !c2;
  send nw ~src:0 ~group:g 1;
  settle sim 1.0;
  checki "after graft" 1 !c2

let test_leave_stops_local_delivery_immediately () =
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  let c2 = ref 0 in
  count_deliveries nw 2 c2;
  Router.join router ~node:2 ~group:g;
  settle sim 1.0;
  send nw ~src:0 ~group:g 1;
  settle sim 1.0;
  checki "got it" 1 !c2;
  Router.leave router ~node:2 ~group:g;
  send nw ~src:0 ~group:g 3;
  settle sim 1.0;
  checki "no more after leave" 1 !c2

let test_leave_latency_keeps_tree () =
  let sim, nw, router = star () in
  (* leave latency = 1 s (default) *)
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group:g;
  settle sim 1.0;
  checkb "on tree" true (Router.on_tree router ~node:2 ~group:g);
  Router.leave router ~node:2 ~group:g;
  settle sim 0.5;
  checkb "still on tree before latency" true
    (Router.on_tree router ~node:2 ~group:g);
  (* Traffic still flows to the pruned-but-not-yet branch. *)
  let link12 =
    Network.link_on_iface nw ~node:1
      ~iface:(Network.iface_to nw ~node:1 ~neighbor:2)
  in
  let before = Net.Link.tx_packets link12 in
  send nw ~src:0 ~group:g 2;
  settle sim 0.3;
  checki "branch still forwarding" (before + 2) (Net.Link.tx_packets link12);
  settle sim 2.0;
  checkb "pruned after latency" false (Router.on_tree router ~node:2 ~group:g);
  let after_prune = Net.Link.tx_packets link12 in
  send nw ~src:0 ~group:g 2;
  settle sim 1.0;
  checki "no forwarding after prune" after_prune (Net.Link.tx_packets link12)

let test_rejoin_cancels_pending_leave () =
  let sim, _nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group:g;
  settle sim 1.0;
  Router.leave router ~node:2 ~group:g;
  settle sim 0.3;
  Router.join router ~node:2 ~group:g;
  settle sim 3.0;
  checkb "still member" true (Router.is_member router ~node:2 ~group:g);
  checkb "still on tree" true (Router.on_tree router ~node:2 ~group:g)

let test_shared_branch_survives_one_leave () =
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  let c3 = ref 0 in
  count_deliveries nw 3 c3;
  Router.join router ~node:2 ~group:g;
  Router.join router ~node:3 ~group:g;
  settle sim 1.0;
  Router.leave router ~node:2 ~group:g;
  settle sim 3.0;
  (* 3's branch must be intact after 2's prune. *)
  send nw ~src:0 ~group:g 4;
  settle sim 1.0;
  checki "3 still receives" 4 !c3

let test_tree_edges () =
  let sim, _nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:2 ~group:g;
  Router.join router ~node:4 ~group:g;
  settle sim 1.0;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "edges" [ (0, 1); (1, 2); (1, 4) ]
    (Router.tree_edges router ~group:g)

let test_members_listing () =
  let sim, _nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  Router.join router ~node:4 ~group:g;
  Router.join router ~node:2 ~group:g;
  settle sim 1.0;
  Alcotest.check (Alcotest.list Alcotest.int) "sorted" [ 2; 4 ]
    (Router.members router ~group:g);
  Router.leave router ~node:4 ~group:g;
  Alcotest.check (Alcotest.list Alcotest.int) "membership instant" [ 2 ]
    (Router.members router ~group:g)

let test_groups_independent () =
  let sim, nw, router = star () in
  let g1 = Router.fresh_group router ~source:0 in
  let g2 = Router.fresh_group router ~source:0 in
  let c2 = ref 0 in
  count_deliveries nw 2 c2;
  Router.join router ~node:2 ~group:g1;
  settle sim 1.0;
  send nw ~src:0 ~group:g2 5;
  settle sim 1.0;
  checki "other group not delivered" 0 !c2;
  send nw ~src:0 ~group:g1 2;
  settle sim 1.0;
  checki "own group" 2 !c2

let test_join_idempotent () =
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  let c2 = ref 0 in
  count_deliveries nw 2 c2;
  Router.join router ~node:2 ~group:g;
  Router.join router ~node:2 ~group:g;
  settle sim 1.0;
  send nw ~src:0 ~group:g 3;
  settle sim 1.0;
  checki "no duplicates" 3 !c2

let test_source_local_member () =
  (* The source itself may subscribe; it hears its own packets. *)
  let sim, nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  let c0 = ref 0 in
  count_deliveries nw 0 c0;
  Router.join router ~node:0 ~group:g;
  settle sim 1.0;
  send nw ~src:0 ~group:g 2;
  settle sim 1.0;
  checki "source hears itself" 2 !c0

(* An id [fresh_group] never returned names no group: every [~group]
   function but the two counters raises on it, where [leave], [is_member],
   [on_tree], [members] and [tree_edges] used to answer for it (and grow
   the tables to fit it). *)
let test_unknown_group_raises () =
  let _sim, _nw, router = star () in
  let g = Router.fresh_group router ~source:0 in
  List.iter
    (fun group ->
      let raises name f =
        Alcotest.check_raises
          (Printf.sprintf "%s on group %d" name group)
          (Invalid_argument "Multicast.Router: unknown group")
          (fun () -> ignore (f ()))
      in
      raises "source" (fun () -> Router.source router ~group);
      raises "join" (fun () -> Router.join router ~node:2 ~group);
      raises "leave" (fun () -> Router.leave router ~node:2 ~group);
      raises "is_member" (fun () -> Router.is_member router ~node:2 ~group);
      raises "on_tree" (fun () -> Router.on_tree router ~node:2 ~group);
      raises "members" (fun () -> Router.members router ~group);
      raises "tree_edges" (fun () -> Router.tree_edges router ~group);
      checki "version" 0 (Router.version router ~group);
      checki "delivered" 0 (Router.delivered router ~group))
    [ g + 1; -1; 1_000 ];
  checki "the allocated group" 0 (Router.source router ~group:g)

(* Words allocated per grafted edge while the 512 leaves of an 8-ary,
   depth-3 tree join one group and the 584-edge tree settles: group and
   per-node state, graft events, recorded parents. With one record per
   group this reads 85.0 words per edge; with nine per-group tables,
   among them a per-link index that every graft updated, it read
   107.0. *)
let test_graft_footprint () =
  let spec = Scenarios.Builders.kary ~fanout:8 ~depth:3 () in
  let sim = Sim.create () in
  let nw = Network.create ~sim spec.topology in
  Net.Routing.prefetch_all (Network.routing nw);
  let router = Router.create ~network:nw () in
  let source, leaves =
    match spec.sessions with [ s ] -> s | _ -> assert false
  in
  (* counts the minor heap exactly only right after a minor collection *)
  let allocated () =
    Gc.minor ();
    Gc.allocated_bytes ()
  in
  let before = allocated () in
  let group = Router.fresh_group router ~source in
  List.iter (fun node -> Router.join router ~node ~group) leaves;
  settle sim 1.0;
  let bytes = allocated () -. before in
  let edges = List.length (Router.tree_edges router ~group) in
  let words = bytes /. float_of_int (Sys.word_size / 8 * edges) in
  checki "every node on the tree" 584 edges;
  checkb
    (Printf.sprintf "%.1f words per grafted edge, at most 90" words)
    true (words <= 90.0)

(* Random-tree property: after settling, every member gets every packet
   exactly once; non-members get nothing. *)
let prop_delivery_matches_membership =
  let gen =
    QCheck.make
      ~print:(fun (n, members) ->
        Printf.sprintf "n=%d members=[%s]" n
          (String.concat ";" (List.map string_of_int members)))
      QCheck.Gen.(
        let* n = 3 -- 15 in
        let* members = list_size (0 -- 8) (int_range 1 (n - 1)) in
        return (n, List.sort_uniq Int.compare members))
  in
  QCheck.Test.make ~name:"delivery set = membership set" ~count:60 gen
    (fun (n, members) ->
      let sim = Sim.create () in
      let topo = Topology.create () in
      ignore (Topology.add_nodes topo n);
      (* random-ish tree: parent of i is i/2 (heap shape) *)
      for i = 1 to n - 1 do
        Topology.add_duplex topo ~a:i ~b:(i / 2) ~bandwidth_bps:1e7
          ~delay:(Time.span_of_ms 5) ()
      done;
      let nw = Network.create ~sim topo in
      let router = Router.create ~network:nw () in
      let g = Router.fresh_group router ~source:0 in
      let counters = Array.make n 0 in
      for node = 0 to n - 1 do
        Network.set_local_handler nw node (fun pkt ->
            match Packet.payload (Network.arena nw) pkt with
            | Media _ -> counters.(node) <- counters.(node) + 1
            | _ -> ())
      done;
      List.iter (fun node -> Router.join router ~node ~group:g) members;
      settle sim 2.0;
      let k = 4 in
      send nw ~src:0 ~group:g k;
      settle sim 2.0;
      let ok = ref true in
      for node = 1 to n - 1 do
        let expected = if List.mem node members then k else 0 in
        if counters.(node) <> expected then ok := false
      done;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "multicast"
    [
      ( "forwarding",
        [
          Alcotest.test_case "members receive" `Quick test_members_receive;
          Alcotest.test_case "single copy on shared link" `Quick
            test_single_copy_on_shared_link;
          Alcotest.test_case "join hop delays" `Quick test_join_takes_hop_delays;
          Alcotest.test_case "groups independent" `Quick test_groups_independent;
          Alcotest.test_case "join idempotent" `Quick test_join_idempotent;
          Alcotest.test_case "source local member" `Quick
            test_source_local_member;
        ] );
      ( "leave",
        [
          Alcotest.test_case "local delivery stops" `Quick
            test_leave_stops_local_delivery_immediately;
          Alcotest.test_case "leave latency" `Quick test_leave_latency_keeps_tree;
          Alcotest.test_case "rejoin cancels" `Quick
            test_rejoin_cancels_pending_leave;
          Alcotest.test_case "shared branch survives" `Quick
            test_shared_branch_survives_one_leave;
        ] );
      ( "state",
        [
          Alcotest.test_case "tree edges" `Quick test_tree_edges;
          Alcotest.test_case "members listing" `Quick test_members_listing;
          Alcotest.test_case "unknown group raises" `Quick
            test_unknown_group_raises;
          Alcotest.test_case "graft footprint" `Quick test_graft_footprint;
        ] );
      qsuite "props" [ prop_delivery_matches_membership ];
    ]
