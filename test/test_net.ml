(* Tests for the packet-level network substrate: topology, routing, links,
   drop-tail queues, and end-to-end unicast forwarding. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Routing = Net.Routing
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

type Packet.payload += Probe of int

(* A line topology n0 - n1 - ... - n(k-1). *)
let line ?(bandwidth_bps = 1_000_000.0) ?(delay = Time.span_of_ms 10)
    ?(queue_limit = Topology.default_queue_limit) k =
  let topo = Topology.create () in
  let nodes = Topology.add_nodes topo k in
  List.iteri
    (fun i a ->
      if i < k - 1 then
        Topology.add_duplex topo ~a ~b:(a + 1) ~bandwidth_bps ~delay
          ~queue_limit ())
    nodes;
  topo

(* ---------- Topology ---------- *)

let test_topology_nodes () =
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  checki "ids dense" 0 a;
  checki "ids dense 2" 1 b;
  checki "count" 2 (Topology.node_count topo)

let test_topology_duplicate_rejected () =
  let topo = line 2 in
  checkb "duplicate raises" true
    (try
       Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1.0 ();
       false
     with Invalid_argument _ -> true);
  checkb "reverse duplicate raises" true
    (try
       Topology.add_duplex topo ~a:1 ~b:0 ~bandwidth_bps:1.0 ();
       false
     with Invalid_argument _ -> true)

let test_topology_self_loop_rejected () =
  let topo = Topology.create () in
  let a = Topology.add_node topo in
  checkb "raises" true
    (try
       Topology.add_duplex topo ~a ~b:a ~bandwidth_bps:1.0 ();
       false
     with Invalid_argument _ -> true)

(* Links build their queues on first wait, so a bad queue limit has to
   fail when the link is added, naming [queue_limit], not in the middle
   of a run. The failed call registers nothing. *)
let test_topology_bad_queue_limit () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 2);
  List.iter
    (fun queue_limit ->
      Alcotest.check_raises
        (Printf.sprintf "queue_limit %d" queue_limit)
        (Invalid_argument "Topology.add_duplex: queue_limit: limit <= 0")
        (fun () ->
          Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e6 ~queue_limit
            ()))
    [ 0; -1 ];
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e6 ~queue_limit:1 ();
  checki "then a valid link" 1 (List.length (Topology.links topo))

let test_topology_neighbors () =
  let topo = line 3 in
  check (Alcotest.list Alcotest.int) "middle" [ 0; 2 ]
    (Topology.neighbors topo 1);
  check (Alcotest.list Alcotest.int) "end" [ 1 ] (Topology.neighbors topo 0)

let test_topology_connectivity () =
  checkb "line connected" true (Topology.is_connected (line 4));
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 2);
  checkb "two islands" false (Topology.is_connected topo)

(* ---------- Routing ---------- *)

let test_routing_line () =
  let topo = line 4 in
  let r = Routing.compute topo in
  checki "0->3 via 1" 1 (Routing.next_hop r ~from:0 ~dst:3);
  checki "3->0 via 2" 2 (Routing.next_hop r ~from:3 ~dst:0);
  check (Alcotest.list Alcotest.int) "path" [ 0; 1; 2; 3 ]
    (Routing.path r ~from:0 ~dst:3);
  checki "distance 3 hops" (3 * Time.to_ns (Time.of_ms 10))
    (Routing.distance r ~from:0 ~dst:3)

let test_routing_shortcut () =
  (* Square with a diagonal: 0-1-2, 0-3-2, plus direct 0-2 -> direct wins. *)
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  let d = Time.span_of_ms 10 in
  List.iter
    (fun (a, b) -> Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ~delay:d ())
    [ (0, 1); (1, 2); (0, 3); (3, 2); (0, 2) ];
  let r = Routing.compute topo in
  checki "direct" 2 (Routing.next_hop r ~from:0 ~dst:2);
  check (Alcotest.list Alcotest.int) "path len" [ 0; 2 ]
    (Routing.path r ~from:0 ~dst:2)

let test_routing_disconnected_rejected () =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 3);
  Topology.add_duplex topo ~a:0 ~b:1 ~bandwidth_bps:1e6 ();
  checkb "raises" true
    (try
       ignore (Routing.compute topo);
       false
     with Invalid_argument _ -> true)

(* A link is named by two adjacent known nodes; repeating a state is a
   no-op that reports no changed destination. *)
let test_routing_set_link_enabled_args () =
  let r = Routing.compute (line 3) in
  let rejects what a b =
    checkb what true
      (match Routing.set_link_enabled r ~a ~b false with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "unknown node" 0 7;
  rejects "negative node" (-1) 0;
  rejects "a = b" 1 1;
  rejects "not adjacent" 0 2;
  (* every column's tree on the line crosses the link *)
  check (Alcotest.list Alcotest.int) "down" [ 0; 1; 2 ]
    (Routing.prefetch_all r;
     Routing.set_link_enabled r ~a:1 ~b:0 false);
  check (Alcotest.list Alcotest.int) "down again" []
    (Routing.set_link_enabled r ~a:0 ~b:1 false);
  check (Alcotest.list Alcotest.int) "up" [ 0; 1; 2 ]
    (Routing.set_link_enabled r ~a:0 ~b:1 true);
  check (Alcotest.list Alcotest.int) "up again" []
    (Routing.set_link_enabled r ~a:1 ~b:0 true)

let prop_routing_paths_valid =
  (* On a random connected graph, every routed path starts and ends right,
     never repeats a node, and walks only existing edges. *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = 2 -- 12 in
        (* random spanning edges + extras *)
        let* extra = list_size (0 -- 10) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
        return (n, extra))
  in
  QCheck.Test.make ~name:"routed paths are valid walks" ~count:100 gen
    (fun (n, extra) ->
      let topo = Topology.create () in
      ignore (Topology.add_nodes topo n);
      let edges = ref [] in
      let add a b =
        if
          a <> b
          && not (List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) !edges)
        then begin
          edges := (a, b) :: !edges;
          Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ()
        end
      in
      for i = 1 to n - 1 do
        add i (i - 1)
      done;
      List.iter (fun (a, b) -> add a b) extra;
      let r = Routing.compute topo in
      let ok = ref true in
      for from = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if from <> dst then begin
            let p = Routing.path r ~from ~dst in
            let adjacent a b =
              List.exists
                (fun (x, y) -> (x = a && y = b) || (x = b && y = a))
                !edges
            in
            let rec walk = function
              | a :: (b :: _ as rest) -> adjacent a b && walk rest
              | [ _ ] | [] -> true
            in
            if
              List.hd p <> from
              || List.hd (List.rev p) <> dst
              || List.length (List.sort_uniq Int.compare p) <> List.length p
              || not (walk p)
            then ok := false
          end
        done
      done;
      !ok)

let prop_routing_distance_symmetric =
  QCheck.Test.make ~name:"distance is symmetric on symmetric links" ~count:50
    QCheck.(int_range 2 10)
    (fun n ->
      let topo = line n in
      let r = Routing.compute topo in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b && Routing.distance r ~from:a ~dst:b <> Routing.distance r ~from:b ~dst:a
          then ok := false
        done
      done;
      !ok)

(* Routing against an independent oracle: Floyd-Warshall over the links
   that are up. Delays of 1-3 ms make equal-length paths common, so the
   tie-break is exercised: the next hop must be the smallest-id neighbor
   on a shortest path. Columns named in [early] are materialized before
   any link goes down, so the link-down recompute and the link-up splice
   run on them; every other column is computed lazily against the live
   link set. *)
type fate = Stays_up | Goes_down | Flaps

let prop_routing_matches_floyd_warshall =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 12 in
      let edge a b =
        map2
          (fun ms fate -> (a, b, ms, fate))
          (1 -- 3)
          (frequencyl [ (5, Stays_up); (2, Goes_down); (1, Flaps) ])
      in
      (* a random spanning tree keeps the topology connected *)
      let* tree =
        flatten_l (List.init (n - 1) (fun i -> int_bound i >>= edge (i + 1)))
      in
      let* extra =
        list_size (0 -- 12)
          (pair (int_bound (n - 1)) (int_bound (n - 1)) >>= fun (a, b) ->
           edge a b)
      in
      let* early = list_size (0 -- 4) (int_bound (n - 1)) in
      return (n, tree @ extra, early))
  in
  let print (n, edges, early) =
    let fate = function
      | Stays_up -> "up"
      | Goes_down -> "down"
      | Flaps -> "flap"
    in
    Printf.sprintf "n=%d edges=[%s] early=[%s]" n
      (String.concat "; "
         (List.map
            (fun (a, b, ms, f) ->
              Printf.sprintf "%d-%d %dms %s" a b ms (fate f))
            edges))
      (String.concat "; " (List.map string_of_int early))
  in
  QCheck.Test.make ~name:"routing equals Floyd-Warshall with links down"
    ~count:300 (QCheck.make ~print gen)
    (fun (n, edges, early) ->
      let topo = Topology.create () in
      ignore (Topology.add_nodes topo n);
      let present = Hashtbl.create 16 in
      let links =
        List.filter
          (fun (a, b, _, _) ->
            let key = (min a b, max a b) in
            a <> b
            && (not (Hashtbl.mem present key))
            && (Hashtbl.add present key ();
                true))
          edges
      in
      List.iter
        (fun (a, b, ms, _) ->
          Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6
            ~delay:(Time.span_of_ms ms) ())
        links;
      let r = Routing.compute topo in
      List.iter (fun d -> ignore (Routing.distance r ~from:d ~dst:d)) early;
      List.iter
        (fun (a, b, _, fate) ->
          if fate <> Stays_up then
            ignore (Routing.set_link_enabled r ~a ~b false))
        links;
      List.iter
        (fun (a, b, _, fate) ->
          if fate = Flaps then ignore (Routing.set_link_enabled r ~a ~b true))
        links;
      let inf = max_int in
      let w = Array.make_matrix n n inf in
      List.iter
        (fun (a, b, ms, fate) ->
          if fate <> Goes_down then begin
            w.(a).(b) <- Time.span_of_ms ms;
            w.(b).(a) <- Time.span_of_ms ms
          end)
        links;
      let d =
        Array.init n (fun i ->
            Array.init n (fun j -> if i = j then 0 else w.(i).(j)))
      in
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if
              d.(i).(k) < inf
              && d.(k).(j) < inf
              && d.(i).(k) + d.(k).(j) < d.(i).(j)
            then d.(i).(j) <- d.(i).(k) + d.(k).(j)
          done
        done
      done;
      let expected_hop from dst =
        List.find_opt
          (fun m ->
            w.(from).(m) < inf && d.(m).(dst) < inf
            && w.(from).(m) + d.(m).(dst) = d.(from).(dst))
          (List.init n Fun.id)
      in
      let ok = ref true in
      for from = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if from <> dst then
            ok :=
              !ok
              && Routing.distance r ~from ~dst = d.(from).(dst)
              && Routing.next_hop_opt r ~from ~dst = expected_hop from dst
        done
      done;
      !ok)

(* ---------- Link timing and queueing ---------- *)

(* 1 Mbps link: an 1000-byte packet serializes in 8 ms. *)
let test_link_serialization_timing () =
  let sim = Sim.create () in
  let topo = line ~bandwidth_bps:1e6 ~delay:(Time.span_of_ms 10) 2 in
  let nw = Network.create ~sim topo in
  let arrival = ref None in
  Network.set_local_handler nw 1 (fun _ -> arrival := Some (Sim.now sim));
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
    ~payload:(Probe 0);
  Sim.run_until sim (Time.of_sec 1);
  match !arrival with
  | None -> Alcotest.fail "packet not delivered"
  | Some t -> checki "8ms ser + 10ms prop" (Time.to_ns (Time.of_ms 18)) (Time.to_ns t)

let test_link_back_to_back () =
  let sim = Sim.create () in
  let topo = line ~bandwidth_bps:1e6 ~delay:(Time.span_of_ms 10) 2 in
  let nw = Network.create ~sim topo in
  let arrivals = ref [] in
  Network.set_local_handler nw 1 (fun _ ->
      arrivals := Time.to_ns (Sim.now sim) :: !arrivals);
  for i = 1 to 3 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 1);
  check
    (Alcotest.list Alcotest.int)
    "spaced by serialization"
    [
      Time.to_ns (Time.of_ms 18);
      Time.to_ns (Time.of_ms 26);
      Time.to_ns (Time.of_ms 34);
    ]
    (List.rev !arrivals)

let test_link_drop_tail () =
  let sim = Sim.create () in
  (* Tiny queue: 2 waiting + 1 in service = at most 3 get through. *)
  let topo = line ~bandwidth_bps:1e6 ~delay:(Time.span_of_ms 1) ~queue_limit:2 2 in
  let nw = Network.create ~sim topo in
  let delivered = ref 0 in
  Network.set_local_handler nw 1 (fun _ -> incr delivered);
  for i = 1 to 10 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 1);
  checki "only 3 delivered" 3 !delivered;
  let link = Network.link_on_iface nw ~node:0 ~iface:0 in
  checki "7 dropped" 7 (Net.Link.drops link);
  checki "3 transmitted" 3 (Net.Link.tx_packets link);
  checki "bytes" 3000 (Net.Link.tx_bytes link)

let test_link_drains_queue () =
  let sim = Sim.create () in
  let topo = line ~bandwidth_bps:1e6 ~delay:(Time.span_of_ms 1) ~queue_limit:50 2 in
  let nw = Network.create ~sim topo in
  let delivered = ref 0 in
  Network.set_local_handler nw 1 (fun _ -> incr delivered);
  for i = 1 to 20 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:500
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 1);
  checki "all delivered" 20 !delivered

(* The in-flight cells (and their reusable timers) come from a per-link
   free list: the pool grows to the high-water mark of simultaneously
   in-flight packets and then stays flat, no matter how many packets the
   link carries. On a 1 Mbps / 10 ms link with 1000-byte packets,
   serialization is 8 ms and propagation 10 ms, so at most one packet is
   in service while two are still propagating: three cells cover any
   backlog. *)
let test_link_pool_reuse () =
  let sim = Sim.create () in
  let topo = line ~bandwidth_bps:1e6 ~delay:(Time.span_of_ms 10) ~queue_limit:100 2 in
  let nw = Network.create ~sim topo in
  let delivered = ref 0 in
  Network.set_local_handler nw 1 (fun _ -> incr delivered);
  for i = 1 to 25 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 1);
  let link = Network.link_on_iface nw ~node:0 ~iface:0 in
  checki "first batch delivered" 25 !delivered;
  let cells = Net.Link.pool_cells link in
  checkb
    (Printf.sprintf "pool bounded by in-flight window (%d)" cells)
    true (cells >= 1 && cells <= 3);
  for i = 26 to 50 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 2);
  checki "second batch delivered" 50 !delivered;
  checki "steady state creates no new cells" cells (Net.Link.pool_cells link)

(* A failure voids everything the link was carrying: the in-service
   packet, the queued backlog, and packets already in propagation. None
   of them may surface after the link comes back — the recycled cells
   must not resurrect the packets they held in the failed epoch. *)
let test_link_pool_no_resurrection () =
  let sim = Sim.create () in
  let topo = line ~bandwidth_bps:1e6 ~delay:(Time.span_of_ms 10) ~queue_limit:10 2 in
  let nw = Network.create ~sim topo in
  let delivered = ref [] in
  Network.set_local_handler nw 1 (fun pkt ->
      match Packet.payload (Network.arena nw) pkt with
      | Probe i -> delivered := i :: !delivered
      | _ -> ());
  let link = Network.link_on_iface nw ~node:0 ~iface:0 in
  for i = 1 to 5 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  (* Probe 1 serializes over [0,8)ms then propagates until 18 ms; probe 2
     enters service at 8 ms. Failing at 12 ms catches probe 1 mid-flight,
     probe 2 in service and probes 3-5 queued. *)
  ignore (Sim.schedule_at sim (Time.of_ms 12) (fun () -> Net.Link.set_up link false));
  ignore (Sim.schedule_at sim (Time.of_ms 20) (fun () -> Net.Link.set_up link true));
  ignore
    (Sim.schedule_at sim (Time.of_ms 25) (fun () ->
         Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
           ~payload:(Probe 6)));
  Sim.run_until sim (Time.of_sec 1);
  check (Alcotest.list Alcotest.int)
    "only the post-recovery packet arrives" [ 6 ] (List.rev !delivered);
  checki "in-flight + in-service + queued all lost" 5
    (Net.Link.fault_drops link);
  let cells = Net.Link.pool_cells link in
  (* Probe 1's propagation cell and probe 2's serialization cell were the
     only ones ever live at once; probe 6 reuses them. *)
  checkb (Printf.sprintf "failed epoch's cells reused (%d)" cells) true
    (cells <= 2);
  (* Further failure cycles with traffic must not grow the pool either. *)
  Net.Link.set_up link false;
  Net.Link.set_up link true;
  for i = 7 to 9 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 2);
  check (Alcotest.list Alcotest.int) "later packets delivered"
    [ 6; 7; 8; 9 ] (List.rev !delivered);
  let cells2 = Net.Link.pool_cells link in
  checkb
    (Printf.sprintf "pool bounded by in-flight window (%d)" cells2)
    true (cells2 <= 3);
  for i = 10 to 12 do
    Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:1000
      ~payload:(Probe i)
  done;
  Sim.run_until sim (Time.of_sec 3);
  checki "pool flat once high-water reached" cells2 (Net.Link.pool_cells link)

(* ---------- Network forwarding ---------- *)

let test_unicast_multihop () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 5) in
  let got = ref None in
  Network.set_local_handler nw 4 (fun pkt ->
      got := Some (Packet.src (Network.arena nw) pkt));
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 4) ~size:100
    ~payload:(Probe 7);
  Sim.run_until sim (Time.of_sec 1);
  checkb "delivered with src" true (!got = Some 0)

let test_unicast_to_self () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 2) in
  let got = ref false in
  Network.set_local_handler nw 0 (fun _ -> got := true);
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 0) ~size:100
    ~payload:(Probe 0);
  checkb "self delivery immediate" true !got

let test_intermediate_not_delivered () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 3) in
  let mid = ref 0 and dst = ref 0 in
  Network.set_local_handler nw 1 (fun _ -> incr mid);
  Network.set_local_handler nw 2 (fun _ -> incr dst);
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 2) ~size:100
    ~payload:(Probe 0);
  Sim.run_until sim (Time.of_sec 1);
  checki "middle sees nothing" 0 !mid;
  checki "destination sees one" 1 !dst

let test_iface_mapping () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 3) in
  checki "node1 has two ifaces" 2 (Network.iface_count nw 1);
  let i0 = Network.iface_to nw ~node:1 ~neighbor:0 in
  let i2 = Network.iface_to nw ~node:1 ~neighbor:2 in
  checkb "distinct" true (i0 <> i2);
  checki "neighbor roundtrip" 0 (Network.neighbor nw ~node:1 ~iface:i0);
  checki "toward 0" i0 (Network.iface_toward nw ~node:1 ~dst:0)

(* Each node finds its interface toward a neighbor by binary search over
   its interfaces sorted by neighbor id. On random connected graphs, and
   on stars whose hub has hundreds of interfaces, the search must invert
   [neighbor] exactly; a pair that is not adjacent (a node and itself,
   two leaves, an id outside the world) has no interface and no link.
   Links go in shuffled and randomly oriented, so interface numbers do
   not follow neighbor ids. *)
let prop_iface_to_inverts_neighbor =
  let graph =
    QCheck.Gen.(
      let* n = 2 -- 30 in
      let* tree =
        flatten_l
          (List.init (n - 1) (fun i -> map (fun p -> (i + 1, p)) (int_bound i)))
      in
      let* extra =
        list_size (0 -- 30) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      in
      return (n, tree @ extra))
  in
  let star =
    QCheck.Gen.(
      let* leaves = 300 -- 400 in
      let* hub = int_bound leaves in
      return
        ( leaves + 1,
          List.filter_map
            (fun i -> if i = hub then None else Some (hub, i))
            (List.init (leaves + 1) Fun.id) ))
  in
  let gen =
    QCheck.Gen.(
      let* n, edges = frequency [ (4, graph); (1, star) ] in
      let* edges = shuffle_l edges in
      let* edges =
        flatten_l
          (List.map
             (fun (a, b) -> map (fun flip -> if flip then (b, a) else (a, b)) bool)
             edges)
      in
      return (n, edges))
  in
  let print (n, edges) =
    Printf.sprintf "n=%d edges=[%s]" n
      (String.concat "; "
         (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))
  in
  QCheck.Test.make ~name:"iface_to inverts neighbor" ~count:100
    (QCheck.make ~print gen) (fun (n, edges) ->
      let topo = Topology.create () in
      ignore (Topology.add_nodes topo n);
      let adjacent = Hashtbl.create 64 in
      List.iter
        (fun (a, b) ->
          if a <> b && not (Hashtbl.mem adjacent (a, b)) then begin
            Hashtbl.replace adjacent (a, b) ();
            Hashtbl.replace adjacent (b, a) ();
            Topology.add_duplex topo ~a ~b ~bandwidth_bps:1e6 ()
          end)
        edges;
      let nw = Network.create ~sim:(Sim.create ()) topo in
      let inverts node =
        List.for_all
          (fun iface ->
            let neighbor = Network.neighbor nw ~node ~iface in
            Network.iface_to nw ~node ~neighbor = iface
            && Network.link_is_up nw ~a:node ~b:neighbor)
          (List.init (Network.iface_count nw node) Fun.id)
      in
      let no_link a b =
        (match Network.iface_to nw ~node:a ~neighbor:b with
        | _ -> false
        | exception Not_found -> true)
        && (match Network.link_is_up nw ~a ~b with
           | _ -> false
           | exception Invalid_argument _ -> true)
        &&
        match Network.set_link_up nw ~a ~b false with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun a ->
          inverts a
          && List.for_all
               (fun b -> Hashtbl.mem adjacent (a, b) || no_link a b)
               (List.init (n + 2) (fun i -> i - 1)))
        (List.init n Fun.id))

(* World build cost per directed link. A link builds its queue (ring,
   stream, label) only when a packet first waits, and a node keeps one
   sorted int array in place of a hash table, so a 10k-leaf star builds
   in about 106 words per directed link. The bound fails if links build
   their queues up front again, or nodes their tables (321 words). *)
let test_build_footprint () =
  let leaves = 10_000 in
  let topo = Topology.create () in
  let hub = Topology.add_node topo in
  for _ = 1 to leaves do
    let leaf = Topology.add_node topo in
    Topology.add_duplex topo ~a:hub ~b:leaf ~bandwidth_bps:1e6 ()
  done;
  let sim = Sim.create () in
  let before = Gc.allocated_bytes () in
  let nw = Network.create ~sim topo in
  let bytes = Gc.allocated_bytes () -. before in
  let per_link = bytes /. float_of_int (Sys.word_size / 8 * 2 * leaves) in
  checki "hub interfaces" leaves (Network.iface_count nw hub);
  checkb
    (Printf.sprintf "%.0f words per directed link, at most 200" per_link)
    true (per_link <= 200.0)

let test_mcast_without_handler_dropped () =
  let sim = Sim.create () in
  let nw = Network.create ~sim (line 2) in
  let got = ref false in
  Network.set_local_handler nw 1 (fun _ -> got := true);
  Network.originate nw ~src:0 ~dst:(Addr.Multicast 0) ~size:100
    ~payload:(Probe 0);
  Sim.run_until sim (Time.of_sec 1);
  checkb "dropped" false !got

(* ---------- packet arena ---------- *)

(* Random alloc/copy/free interleavings against a model: a handle freed
   once must never be seen again — a later allocation reusing its slot
   carries a bumped generation, so the stale handle is dead ([is_live]
   false, [free] raises) and every fresh handle differs from every
   handle ever freed. This is the whole safety story for unchecked
   accessors: aliasing a recycled slot is the only way a stale handle
   could silently read another packet's fields. *)
type arena_op = A_alloc | A_copy of int | A_free of int

let arena_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return A_alloc);
        (2, map (fun i -> A_copy i) (int_bound 1000));
        (3, map (fun i -> A_free i) (int_bound 1000));
      ])

let pp_arena_op ppf = function
  | A_alloc -> Format.fprintf ppf "Alloc"
  | A_copy i -> Format.fprintf ppf "Copy %d" i
  | A_free i -> Format.fprintf ppf "Free %d" i

let arena_op_arb =
  QCheck.make
    ~print:(Format.asprintf "%a" (Format.pp_print_list pp_arena_op))
    QCheck.Gen.(list_size (1 -- 120) arena_op_gen)

let prop_arena_no_stale_aliasing =
  QCheck.Test.make ~name:"freed handles never alias later allocations"
    ~count:100 arena_op_arb
    (fun ops ->
      (* Tiny initial size so slot recycling and growth both happen. *)
      let arena = Packet.create_arena ~initial:2 () in
      let live = ref [] and stale = ref [] in
      let next_id = ref 0 in
      let fresh h =
        incr next_id;
        (* A fresh handle must collide with nothing we have ever freed
           (generation guard) and nothing currently live (slot
           uniqueness). *)
        if List.memq h !stale then failwith "fresh handle aliases a freed one";
        if List.memq h !live then failwith "fresh handle aliases a live one";
        live := h :: !live
      in
      List.iter
        (fun op ->
          match op with
          | A_alloc ->
              fresh
                (Packet.alloc_data arena ~src:0 ~group:7
                   ~size:Packet.data_size ~session:0 ~layer:0 ~seq:!next_id)
          | A_copy k -> (
              match !live with
              | [] -> ()
              | hs -> fresh (Packet.copy arena (List.nth hs (k mod List.length hs))))
          | A_free k -> (
              match !live with
              | [] -> ()
              | hs ->
                  let h = List.nth hs (k mod List.length hs) in
                  Packet.free arena h;
                  live := List.filter (fun x -> x <> h) !live;
                  stale := h :: !stale))
        ops;
      (* Every stale handle is dead: invisible to [is_live] and rejected
         by [free] (double free / stale free both raise). *)
      List.iter
        (fun h ->
          if Packet.is_live arena h then failwith "stale handle looks live";
          match Packet.free arena h with
          | () -> failwith "double free accepted"
          | exception Invalid_argument _ -> ())
        !stale;
      List.for_all (fun h -> Packet.is_live arena h) !live
      && Packet.live_count arena = List.length !live)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "node ids" `Quick test_topology_nodes;
          Alcotest.test_case "duplicate link" `Quick
            test_topology_duplicate_rejected;
          Alcotest.test_case "self loop" `Quick test_topology_self_loop_rejected;
          Alcotest.test_case "bad queue limit" `Quick
            test_topology_bad_queue_limit;
          Alcotest.test_case "neighbors" `Quick test_topology_neighbors;
          Alcotest.test_case "connectivity" `Quick test_topology_connectivity;
        ] );
      ( "routing",
        [
          Alcotest.test_case "line" `Quick test_routing_line;
          Alcotest.test_case "shortcut" `Quick test_routing_shortcut;
          Alcotest.test_case "disconnected" `Quick
            test_routing_disconnected_rejected;
          Alcotest.test_case "set_link_enabled arguments" `Quick
            test_routing_set_link_enabled_args;
        ] );
      qsuite "routing-props"
        [
          prop_routing_paths_valid;
          prop_routing_distance_symmetric;
          prop_routing_matches_floyd_warshall;
        ];
      ( "link",
        [
          Alcotest.test_case "serialization timing" `Quick
            test_link_serialization_timing;
          Alcotest.test_case "back to back" `Quick test_link_back_to_back;
          Alcotest.test_case "drop tail" `Quick test_link_drop_tail;
          Alcotest.test_case "drains queue" `Quick test_link_drains_queue;
          Alcotest.test_case "pool reuse" `Quick test_link_pool_reuse;
          Alcotest.test_case "pool no resurrection" `Quick
            test_link_pool_no_resurrection;
        ] );
      qsuite "arena-props" [ prop_arena_no_stale_aliasing ];
      qsuite "network-props" [ prop_iface_to_inverts_neighbor ];
      ( "network",
        [
          Alcotest.test_case "multihop" `Quick test_unicast_multihop;
          Alcotest.test_case "to self" `Quick test_unicast_to_self;
          Alcotest.test_case "transit nodes silent" `Quick
            test_intermediate_not_delivered;
          Alcotest.test_case "iface mapping" `Quick test_iface_mapping;
          Alcotest.test_case "build footprint" `Quick test_build_footprint;
          Alcotest.test_case "mcast no handler" `Quick
            test_mcast_without_handler_dropped;
        ] );
    ]
