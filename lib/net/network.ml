module Sim = Engine.Sim
module Time = Engine.Time

(* Growable array with O(1) amortised append and in-order iteration, for
   handler/observer registration (the seed appended with [l @ [f]]). *)
module Dyn = struct
  type 'a t = { mutable items : 'a array; mutable count : int }

  let create () = { items = [||]; count = 0 }

  let push d x =
    let cap = Array.length d.items in
    if d.count = cap then begin
      let ndata = Array.make (if cap = 0 then 4 else 2 * cap) x in
      Array.blit d.items 0 ndata 0 d.count;
      d.items <- ndata
    end;
    d.items.(d.count) <- x;
    d.count <- d.count + 1

  let reset_to d x = d.items <- [| x |]; d.count <- 1
end

type node = {
  mutable out_links : Link.t array;  (** indexed by interface *)
  mutable neighbors : Addr.node_id array;
  mutable by_neighbor : int array;
      (** the interfaces sorted by neighbor id: the inverse of
          [neighbors], binary-searched by [find_iface] *)
  local_handlers : (Packet.t -> unit) Dyn.t;  (** run in order *)
  mutable mcast_handler : (Packet.t -> in_iface:int option -> unit) option;
}

type topology_event = {
  a : Addr.node_id;
  b : Addr.node_id;
  up : bool;
  affected_destinations : Addr.node_id list;
}

type t = {
  sim : Sim.t;
  arena : Packet.arena;
  routing : Routing.t;
  nodes : node array;
  observers :
    (Packet.t -> at:Addr.node_id -> in_iface:int option -> unit) Dyn.t;
  topology_observers : (topology_event -> unit) Dyn.t;
      (** fired after every administrative link state change *)
  mutable origination_filter :
    (Packet.t -> [ `Deliver | `Drop | `Delay of Time.span ]) option;
  mutable unroutable_drops : int;
}

let sim t = t.sim
let arena t = t.arena
let routing t = t.routing
let node_count t = Array.length t.nodes

let fresh_node () =
  {
    out_links = [||];
    neighbors = [||];
    by_neighbor = [||];
    local_handlers = Dyn.create ();
    mcast_handler = None;
  }

(* The interface of [node] toward [neighbor], or -1 if they are not
   adjacent: a binary search of [by_neighbor], O(log degree) with no
   table per node. *)
let find_iface t ~node ~neighbor =
  let n = t.nodes.(node) in
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let i = n.by_neighbor.(mid) in
      let m = n.neighbors.(i) in
      if m = neighbor then i
      else if m < neighbor then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length n.by_neighbor)

let deliver_local t n (pkt : Packet.t) =
  let hs = t.nodes.(n).local_handlers in
  for i = 0 to hs.Dyn.count - 1 do
    hs.Dyn.items.(i) pkt
  done

(* Forwarding at [node] for a packet arriving from the wire or originated
   locally; owns the packet handle (every path forwards it, hands it to
   the multicast handler, or frees it). Unicast is handled here;
   multicast is the plugged handler's responsibility (RPF checks, group
   state). The observer loops are written out rather than going through
   [Dyn.iter] so the per-packet path allocates no iteration closure. *)
let rec handle t ~node ~in_iface (pkt : Packet.t) =
  let obs = t.observers in
  for i = 0 to obs.Dyn.count - 1 do
    obs.Dyn.items.(i) pkt ~at:node ~in_iface
  done;
  if Packet.dst_is_multicast t.arena pkt then begin
    match t.nodes.(node).mcast_handler with
    | Some f -> f pkt ~in_iface
    | None -> Packet.free t.arena pkt
  end
  else begin
    let d = Packet.dst_node t.arena pkt in
    if d = node then begin
      deliver_local t node pkt;
      Packet.free t.arena pkt
    end
    else
      match Routing.next_hop t.routing ~from:node ~dst:d with
      | -1 ->
          t.unroutable_drops <- t.unroutable_drops + 1;
          Packet.free t.arena pkt
      | nh -> send_to_neighbor t ~node ~neighbor:nh pkt
  end

and send_to_neighbor t ~node ~neighbor pkt =
  match find_iface t ~node ~neighbor with
  | -1 -> invalid_arg "Network: not adjacent"
  | i -> Link.send t.nodes.(node).out_links.(i) pkt

let create ~sim topo =
  let routing = Routing.compute topo in
  let nodes = Array.init (Topology.node_count topo) (fun _ -> fresh_node ()) in
  let t =
    {
      sim;
      arena = Packet.create_arena ();
      routing;
      nodes;
      observers = Dyn.create ();
      topology_observers = Dyn.create ();
      origination_filter = None;
      unroutable_drops = 0;
    }
  in
  (* Interface arrays are sized up front from the node degrees: growing
     them with [Array.append] per link is O(degree^2) per node, which a
     generated stub router with thousands of receivers turns into the
     dominant cost of world construction. Fill order is unchanged, so
     iface numbering (and hence all downstream determinism) is too. *)
  let degree = Array.make (Array.length nodes) 0 in
  let specs = Topology.links topo in
  List.iter
    (fun (spec : Topology.link_spec) ->
      degree.(spec.a) <- degree.(spec.a) + 1;
      degree.(spec.b) <- degree.(spec.b) + 1)
    specs;
  let cursor = Array.make (Array.length nodes) 0 in
  (* Adds the simplex link [src -> dst] as [src]'s next interface and
     returns that interface. *)
  let attach ~src ~dst (spec : Topology.link_spec) =
    let link =
      Link.create ~sim ~arena:t.arena ~src ~dst
        ~bandwidth_bps:spec.bandwidth_bps ~prop_delay:spec.delay
        ~discipline:spec.discipline
    in
    let n = nodes.(src) in
    if Array.length n.out_links = 0 then begin
      n.out_links <- Array.make degree.(src) link;
      n.neighbors <- Array.make degree.(src) dst
    end;
    let i = cursor.(src) in
    cursor.(src) <- i + 1;
    n.out_links.(i) <- link;
    n.neighbors.(i) <- dst;
    i
  in
  List.iter
    (fun (spec : Topology.link_spec) ->
      let a = spec.a and b = spec.b in
      let a_to_b = attach ~src:a ~dst:b spec in
      let b_to_a = attach ~src:b ~dst:a spec in
      (* A packet arriving over a->b comes in on b's interface to a. The
         [Some] is built once per link, not once per delivery. *)
      let in_b = Some b_to_a and in_a = Some a_to_b in
      Link.set_deliver nodes.(a).out_links.(a_to_b) (fun pkt ->
          handle t ~node:b ~in_iface:in_b pkt);
      Link.set_deliver nodes.(b).out_links.(b_to_a) (fun pkt ->
          handle t ~node:a ~in_iface:in_a pkt))
    specs;
  Array.iter
    (fun n ->
      let order = Array.init (Array.length n.neighbors) Fun.id in
      Array.sort (fun i j -> Int.compare n.neighbors.(i) n.neighbors.(j)) order;
      n.by_neighbor <- order)
    nodes;
  t

let iface_count t n = Array.length t.nodes.(n).out_links

let neighbor t ~node ~iface = t.nodes.(node).neighbors.(iface)

let iface_to t ~node ~neighbor =
  match find_iface t ~node ~neighbor with -1 -> raise Not_found | i -> i

let iface_toward t ~node ~dst =
  let nh = Routing.next_hop t.routing ~from:node ~dst in
  iface_to t ~node ~neighbor:nh

let add_transit_observer t f = Dyn.push t.observers f

let add_topology_observer t f = Dyn.push t.topology_observers f

let set_link_up t ~a ~b up =
  let iface_ab =
    match find_iface t ~node:a ~neighbor:b with
    | -1 -> invalid_arg "Network.set_link_up: not adjacent"
    | i -> i
  in
  let iface_ba = find_iface t ~node:b ~neighbor:a in
  Link.set_up t.nodes.(a).out_links.(iface_ab) up;
  Link.set_up t.nodes.(b).out_links.(iface_ba) up;
  let affected = Routing.set_link_enabled t.routing ~a ~b up in
  let ev = { a; b; up; affected_destinations = affected } in
  let obs = t.topology_observers in
  for i = 0 to obs.Dyn.count - 1 do
    obs.Dyn.items.(i) ev
  done

let link_is_up t ~a ~b =
  match find_iface t ~node:a ~neighbor:b with
  | -1 -> invalid_arg "Network.link_is_up: not adjacent"
  | i -> Link.is_up t.nodes.(a).out_links.(i)

let set_origination_filter t f = t.origination_filter <- Some f
let clear_origination_filter t = t.origination_filter <- None
let unroutable_drops t = t.unroutable_drops

let fault_drops t =
  let total = ref 0 in
  Array.iter
    (fun n -> Array.iter (fun l -> total := !total + Link.fault_drops l) n.out_links)
    t.nodes;
  !total

let set_local_handler t n f = Dyn.reset_to t.nodes.(n).local_handlers f

let add_local_handler t n f = Dyn.push t.nodes.(n).local_handlers f
let set_mcast_handler t n f = t.nodes.(n).mcast_handler <- Some f

let inject t ~src pkt =
  match t.origination_filter with
  | None -> handle t ~node:src ~in_iface:None pkt
  | Some f -> (
      match f pkt with
      | `Deliver -> handle t ~node:src ~in_iface:None pkt
      | `Drop -> Packet.free t.arena pkt
      | `Delay span ->
          ignore
            (Sim.schedule_after t.sim span (fun () ->
                 handle t ~node:src ~in_iface:None pkt)))

let originate t ~src ~dst ~size ~payload =
  if size <= 0 then invalid_arg "Network.originate: size <= 0";
  inject t ~src (Packet.alloc t.arena ~src ~dst ~size ~payload)

(* The media fast path: no boxed payload, no [Addr.dest], no packet
   record — three array writes and an immediate handle. *)
let originate_data t ~src ~group ~size ~session ~layer ~seq =
  inject t ~src
    (Packet.alloc_data t.arena ~src ~group ~size ~session ~layer ~seq)

let send_on_iface t ~node ~iface pkt =
  Link.send t.nodes.(node).out_links.(iface) pkt

let link_on_iface t ~node ~iface = t.nodes.(node).out_links.(iface)
