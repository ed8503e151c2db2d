module Topology = Net.Topology

type spec = {
  topology : Net.Topology.t;
  controller_node : Net.Addr.node_id;
  sessions : (Net.Addr.node_id * Net.Addr.node_id list) list;
}

let fast_bps = Topology.mbps 10.0

(* Queues are sized near each link's bandwidth-delay product (clamped to
   [10, 100] packets) rather than the ns default of 50 everywhere: at
   100 Kbps a 50-packet queue adds 4 s of drain delay, smearing every
   loss episode across several TopoSense intervals, while at 8 Mbps a
   10-packet queue drops on every burst coincidence long before the link
   is actually saturated. *)
let queue_limit_for ~bandwidth_bps =
  let delay_s = Engine.Time.span_to_sec_f Topology.default_delay in
  let bdp_packets = bandwidth_bps *. delay_s /. (8.0 *. 1000.0) in
  max 10 (min 100 (int_of_float (Float.round bdp_packets)))

let default_discipline ~bandwidth_bps =
  Net.Queue_discipline.Drop_tail { limit = queue_limit_for ~bandwidth_bps }

let duplex topo ~a ~b ~bandwidth_bps =
  Topology.add_duplex topo ~a ~b ~bandwidth_bps
    ~discipline:(default_discipline ~bandwidth_bps)
    ()

(* Same nodes, same links in the same order: only the queues differ, so
   a run on the copy differs from one on [spec] by its queues alone. *)
let map_disciplines f spec =
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo (Topology.node_count spec.topology));
  List.iter
    (fun (l : Topology.link_spec) ->
      Topology.add_duplex topo ~a:l.a ~b:l.b ~bandwidth_bps:l.bandwidth_bps
        ~delay:l.delay ~discipline:(f l.discipline) ())
    (Topology.links spec.topology);
  { spec with topology = topo }

let topology_a ~receivers_per_set =
  if receivers_per_set < 1 then invalid_arg "topology_a: receivers_per_set < 1";
  let topo = Topology.create () in
  let source = Topology.add_node topo in
  let core = Topology.add_node topo in
  let branch_fast = Topology.add_node topo in
  let branch_slow = Topology.add_node topo in
  duplex topo ~a:source ~b:core ~bandwidth_bps:fast_bps;
  (* 500 Kbps: ideally 4 layers (480 Kbps); 100 Kbps: ideally 2 (96 Kbps). *)
  duplex topo ~a:core ~b:branch_fast ~bandwidth_bps:(Topology.kbps 500.0);
  duplex topo ~a:core ~b:branch_slow ~bandwidth_bps:(Topology.kbps 100.0);
  let attach branch =
    List.map
      (fun r ->
        duplex topo ~a:branch ~b:r ~bandwidth_bps:fast_bps;
        r)
      (Topology.add_nodes topo receivers_per_set)
  in
  let fast = attach branch_fast in
  let slow = attach branch_slow in
  {
    topology = topo;
    controller_node = source;
    sessions = [ (source, fast @ slow) ];
  }

let topology_b ~session_count =
  if session_count < 1 then invalid_arg "topology_b: session_count < 1";
  let topo = Topology.create () in
  let left = Topology.add_node topo in
  let right = Topology.add_node topo in
  (* Shared link sized so each session can ideally receive 4 layers. *)
  duplex topo ~a:left ~b:right
    ~bandwidth_bps:(Topology.kbps (500.0 *. float_of_int session_count));
  let sessions =
    List.map
      (fun _ ->
        let source = Topology.add_node topo in
        let receiver = Topology.add_node topo in
        duplex topo ~a:source ~b:left ~bandwidth_bps:fast_bps;
        duplex topo ~a:right ~b:receiver ~bandwidth_bps:fast_bps;
        (source, [ receiver ]))
      (List.init session_count Fun.id)
  in
  let controller_node =
    match sessions with (source, _) :: _ -> source | [] -> assert false
  in
  { topology = topo; controller_node; sessions }

(* Complete k-ary tree of internal fan-out [fanout] and [depth] levels
   below the root, every link at [fast_bps]. Each internal node's
   consecutive children are also chained sibling-to-sibling: those links
   are off every shortest path while the tree is intact (one hop up
   beats two hops sideways at equal delay), but give a failed tree link
   a detour, so churn exercises rerouting and bounded tree repair rather
   than only partition and reattachment. The session is rooted at the
   root with every leaf a receiver. *)
let kary ~fanout ~depth () =
  if fanout < 2 then invalid_arg "kary: fanout < 2";
  if depth < 1 then invalid_arg "kary: depth < 1";
  let topo = Topology.create () in
  let root = Topology.add_node topo in
  let rec grow parents level =
    let children =
      List.concat_map
        (fun parent ->
          let kids = Topology.add_nodes topo fanout in
          List.iter
            (fun kid -> duplex topo ~a:parent ~b:kid ~bandwidth_bps:fast_bps)
            kids;
          List.iter2
            (fun a b -> duplex topo ~a ~b ~bandwidth_bps:fast_bps)
            (List.filteri (fun i _ -> i < fanout - 1) kids)
            (List.tl kids);
          kids)
        parents
    in
    if level = depth then children else grow children (level + 1)
  in
  let leaves = grow [ root ] 1 in
  { topology = topo; controller_node = root; sessions = [ (root, leaves) ] }

(* ---------- generated transit-stub worlds (PR 7) ---------- *)

type world = {
  spec : spec;
  domains : (int * Net.Addr.node_id list) list;
}

(* One administrative domain must meet the rest of the topology at a
   single node: then any tree, under any routing, enters it exactly once
   and [Discovery.Snapshot.restrict] can never hit its multi-ingress
   failure. Checking attachment points is a static property of the
   topology, so bad domain drawings die at world-build time with a
   message naming the offending nodes instead of mid-run inside a
   controller interval. *)
let validate_domains ~topology ~domains =
  let n = Topology.node_count topology in
  let adj = Array.make (max n 1) [] in
  List.iter
    (fun (l : Topology.link_spec) ->
      adj.(l.a) <- l.b :: adj.(l.a);
      adj.(l.b) <- l.a :: adj.(l.b))
    (Topology.links topology);
  let claimed = Util.Bitset.create ~capacity:n () in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check = function
    | [] -> Ok ()
    | (id, nodes) :: rest -> (
        if nodes = [] then err "domain %d is empty" id
        else if List.exists (fun v -> v < 0 || v >= n) nodes then
          err "domain %d names a node outside the topology" id
        else if List.exists (Util.Bitset.mem claimed) nodes then
          err "domain %d overlaps an earlier domain" id
        else begin
          let inside = Util.Bitset.of_list nodes in
          let attachments =
            List.filter
              (fun v ->
                List.exists
                  (fun u -> not (Util.Bitset.mem inside u))
                  adj.(v))
              nodes
          in
          match attachments with
          | [] | [ _ ] ->
              List.iter (Util.Bitset.add claimed) nodes;
              check rest
          | _ ->
              err
                "domain %d attaches to the rest of the topology at %d \
                 nodes (%a); a controller domain must meet the outside \
                 at a single node so every session tree enters it once \
                 — re-draw the boundary or drop the extra uplink"
                id
                (List.length attachments)
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                   Net.Addr.pp_node)
                attachments
        end)
  in
  check domains

(* Transit-stub internet in the GT-ITM mold, scaled-down knobs: a ring
   of transit routers, [stubs_per_transit] stub routers hanging off each,
   [receivers_per_stub] receivers behind each stub router. The stub
   uplinks alternate 500/100 Kbps so a scaled world keeps Topology A's
   heterogeneity (ideal 4 vs 2 layers); everything else is fast. One
   session from a source behind transit 0 to every receiver. Each stub
   (router + its receivers) is one controller domain; transits and the
   source belong to the federation parent's turf. *)
let transit_stub ~transits ~stubs_per_transit ~receivers_per_stub () =
  if transits < 1 then invalid_arg "transit_stub: transits < 1";
  if stubs_per_transit < 1 then
    invalid_arg "transit_stub: stubs_per_transit < 1";
  if receivers_per_stub < 1 then
    invalid_arg "transit_stub: receivers_per_stub < 1";
  let topo = Topology.create () in
  let core_bps = fast_bps *. 10.0 in
  let source = Topology.add_node topo in
  let transit = Array.of_list (Topology.add_nodes topo transits) in
  duplex topo ~a:source ~b:transit.(0) ~bandwidth_bps:core_bps;
  for i = 0 to transits - 2 do
    duplex topo ~a:transit.(i) ~b:transit.(i + 1) ~bandwidth_bps:core_bps
  done;
  if transits > 2 then
    duplex topo ~a:transit.(transits - 1) ~b:transit.(0)
      ~bandwidth_bps:core_bps;
  let domains = ref [] in
  let receivers = ref [] in
  for i = 0 to transits - 1 do
    for j = 0 to stubs_per_transit - 1 do
      let stub_id = (i * stubs_per_transit) + j in
      let stub_router = Topology.add_node topo in
      let uplink_bps =
        if stub_id mod 2 = 0 then Topology.kbps 500.0 else Topology.kbps 100.0
      in
      duplex topo ~a:transit.(i) ~b:stub_router ~bandwidth_bps:uplink_bps;
      let rs = Topology.add_nodes topo receivers_per_stub in
      List.iter
        (fun r -> duplex topo ~a:stub_router ~b:r ~bandwidth_bps:fast_bps)
        rs;
      domains := (stub_id, stub_router :: rs) :: !domains;
      receivers := List.rev_append rs !receivers
    done
  done;
  let domains = List.rev !domains in
  (match validate_domains ~topology:topo ~domains with
  | Ok () -> ()
  | Error msg -> invalid_arg ("transit_stub: " ^ msg));
  {
    spec =
      {
        topology = topo;
        controller_node = source;
        sessions = [ (source, List.rev !receivers) ];
      };
    domains;
  }

let figure1 () =
  let topo = Topology.create () in
  let source = Topology.add_node topo in
  let n1 = Topology.add_node topo in
  let n2 = Topology.add_node topo in
  let r3 = Topology.add_node topo in
  let r4 = Topology.add_node topo in
  let n5 = Topology.add_node topo in
  let r6 = Topology.add_node topo in
  let r7 = Topology.add_node topo in
  duplex topo ~a:source ~b:n1 ~bandwidth_bps:fast_bps;
  duplex topo ~a:n1 ~b:n2 ~bandwidth_bps:(Topology.kbps 150.0);
  duplex topo ~a:n2 ~b:r3 ~bandwidth_bps:(Topology.kbps 60.0);
  duplex topo ~a:n2 ~b:r4 ~bandwidth_bps:(Topology.kbps 150.0);
  duplex topo ~a:n1 ~b:n5 ~bandwidth_bps:fast_bps;
  duplex topo ~a:n5 ~b:r6 ~bandwidth_bps:fast_bps;
  duplex topo ~a:n5 ~b:r7 ~bandwidth_bps:fast_bps;
  {
    topology = topo;
    controller_node = source;
    sessions = [ (source, [ r3; r4; r6; r7 ]) ];
  }
