module Sim = Engine.Sim
module Time = Engine.Time
module Addr = Net.Addr
module Network = Net.Network
module Bitset = Util.Bitset

type gstate = {
  oifs : Bitset.t;  (* outgoing interfaces with downstream interest *)
  mutable local : bool;  (* application-level membership at this node *)
  mutable on_tree : bool;
  mutable leave_epoch : int;  (* invalidates stale leave timers *)
  mutable parents : Addr.node_id list;
      (* ascending parents with a recorded edge toward this node: almost
         always empty or a singleton, transiently two mid-repair (a
         reroute can leave the old parent forwarding while the graft
         installs the new one) *)
}

(* Everything the router keeps for one group. *)
type group = {
  src : Addr.node_id;
  mutable row : gstate option array;
      (* node-indexed, allocated on the group's first touch *)
  members : Bitset.t;  (* nodes whose [local] is set *)
  detached : Bitset.t;
      (* on-tree nodes with no recorded parent edge: severed subtree
         roots and nodes whose graft is still in flight *)
  mutable edge_count : int;
  mutable version : int;
      (* bumped on every change to the recorded edges or local
         membership: what a topology capture reads *)
  mutable delivered : int;
}

type t = {
  network : Network.t;
  arena : Net.Packet.arena;
  node_count : int;
  mutable oif_scratch : int array;
      (** reusable fan-out buffer: [handle] spills a group's outgoing
          interface set here so forwarding iterates a flat array instead
          of allocating a per-packet closure over the bitset *)
  leave_latency : Time.span;
  expedited_leave : bool;
  mutable groups : group array;
      (* indexed by group id: [fresh_group] hands ids out densely, so the
         forwarding path does a plain load instead of hashing *)
  mutable next_group : Addr.group_id;
  mutable repair_passes : int;
  mutable edges_repaired : int;
  (* Local memberships wiped by a node crash, remembered so recovery can
     re-issue the RPF joins that rebuild the node's group state. *)
  crashed_locals : (Addr.node_id, Addr.group_id list) Hashtbl.t;
}

let find t group =
  if group < 0 || group >= t.next_group then
    invalid_arg "Multicast.Router: unknown group";
  t.groups.(group)

let state t g node =
  if Array.length g.row = 0 then g.row <- Array.make t.node_count None;
  match g.row.(node) with
  | Some s -> s
  | None ->
      let s =
        {
          oifs = Bitset.create ~capacity:8 ();
          local = false;
          on_tree = false;
          leave_epoch = 0;
          parents = [];
        }
      in
      g.row.(node) <- Some s;
      s

(* Every change to what [members] and [tree_edges] return, and to the
   [local] flags that [join], [leave] and [crash_node] flip together
   with membership, goes through [add_member], [remove_member],
   [add_edge] or [remove_edge]; each bumps the group's version. *)
let add_member g node =
  g.version <- g.version + 1;
  Bitset.add g.members node

let remove_member g node =
  g.version <- g.version + 1;
  Bitset.remove g.members node

let add_edge t g ~parent ~child =
  g.version <- g.version + 1;
  let st = state t g child in
  if not (List.mem parent st.parents) then begin
    (* keep ascending: detaching and crashing walk parents in this order *)
    st.parents <- List.sort compare (parent :: st.parents);
    g.edge_count <- g.edge_count + 1
  end;
  (* the child has a parent again *)
  Bitset.remove g.detached child

let remove_edge t g ~parent ~child =
  g.version <- g.version + 1;
  let st = state t g child in
  if List.mem parent st.parents then begin
    st.parents <- List.filter (fun p -> p <> parent) st.parents;
    g.edge_count <- g.edge_count - 1
  end;
  if st.on_tree then Bitset.add g.detached child

let source t ~group = (find t group).src

(* Data-plane forwarding, installed on every node; owns the packet
   handle. Local delivery borrows it; the fan-out sends a copy per
   outgoing interface except the last, which gets the original — so
   exactly one send consumes it, and a packet nobody wants is freed. *)
let handle t node (pkt : Net.Packet.t) ~in_iface =
  if not (Net.Packet.dst_is_multicast t.arena pkt) then
    Net.Packet.free t.arena pkt
  else begin
    let g = find t (Net.Packet.dst_group t.arena pkt) in
    (* RPF: the packet must arrive over the interface on the unicast
       shortest path toward the source. Comparing neighbor ids avoids a
       neighbor->interface lookup on the per-packet path. *)
    let rpf_ok =
      match in_iface with
      | None -> node = g.src
      | Some i ->
          node <> g.src
          && Network.neighbor t.network ~node ~iface:i
             = Net.Routing.next_hop (Network.routing t.network) ~from:node
                 ~dst:g.src
    in
    if not rpf_ok then Net.Packet.free t.arena pkt
    else begin
      let st = state t g node in
      if st.local then begin
        g.delivered <- g.delivered + 1;
        Network.deliver_local t.network node pkt
      end;
      let inf = match in_iface with None -> -1 | Some i -> i in
      let card = Bitset.cardinal st.oifs in
      if Array.length t.oif_scratch < card then
        t.oif_scratch <- Array.make (max 8 (2 * card)) 0;
      let n = Bitset.fill_into st.oifs t.oif_scratch in
      let eligible = ref 0 in
      for k = 0 to n - 1 do
        if t.oif_scratch.(k) <> inf then incr eligible
      done;
      if !eligible = 0 then Net.Packet.free t.arena pkt
      else
        (* ascending interface order, as [Bitset.iter] walked it; copies
           keep the packet id, so traces see the same wire packet on
           every branch *)
        for k = 0 to n - 1 do
          let oif = t.oif_scratch.(k) in
          if oif <> inf then begin
            decr eligible;
            let p =
              if !eligible = 0 then pkt else Net.Packet.copy t.arena pkt
            in
            Network.send_on_iface t.network ~node ~iface:oif p
          end
        done
    end
  end

let fresh_group t ~source =
  let id = t.next_group in
  let g =
    {
      src = source;
      row = [||];
      members = Bitset.create ();
      detached = Bitset.create ();
      edge_count = 0;
      version = 0;
      delivered = 0;
    }
  in
  if id = Array.length t.groups then begin
    (* the slots past [next_group] are never read, so the new record
       fills them *)
    let grown = Array.make (max 8 (2 * id)) g in
    Array.blit t.groups 0 grown 0 id;
    t.groups <- grown
  end;
  t.groups.(id) <- g;
  t.next_group <- id + 1;
  id

let hop_delay t ~node ~parent =
  let iface = Network.iface_to t.network ~node ~neighbor:parent in
  Net.Link.prop_delay (Network.link_on_iface t.network ~node ~iface)

let rpf_parent t ~node ~src =
  Net.Routing.next_hop_opt (Network.routing t.network) ~from:node ~dst:src

(* Propagate a graft toward the source until an on-tree ancestor (or the
   source) absorbs it. Each hop takes the link's propagation delay. The
   in-flight hop revalidates against the routing tables when it lands:
   if a failure rerouted us meanwhile, the graft restarts along the new
   reverse path instead of installing a stale edge. *)
let rec graft t g ~node =
  if node <> g.src then
    match rpf_parent t ~node ~src:g.src with
    | None -> () (* partitioned; the repair pass after reconnection retries *)
    | Some parent ->
        ignore
          (Sim.schedule_after (Network.sim t.network)
             (hop_delay t ~node ~parent)
             (fun () ->
               if rpf_parent t ~node ~src:g.src <> Some parent then begin
                 let st = state t g node in
                 if st.on_tree && (st.local || not (Bitset.is_empty st.oifs))
                 then graft t g ~node
               end
               else begin
                 detach_other_parents t g ~node ~keep:parent;
                 let pst = state t g parent in
                 let oif =
                   Network.iface_to t.network ~node:parent ~neighbor:node
                 in
                 if not (Bitset.mem pst.oifs oif) then begin
                   Bitset.add pst.oifs oif;
                   add_edge t g ~parent ~child:node
                 end;
                 if not pst.on_tree then begin
                   pst.on_tree <- true;
                   if parent <> g.src then Bitset.add g.detached parent;
                   graft t g ~node:parent
                 end
               end))

(* Prune upward: a node with no local member and no downstream interest
   leaves the tree and tells its parent after one hop delay. *)
and maybe_prune t g ~node =
  let st = state t g node in
  if st.on_tree && (not st.local) && Bitset.is_empty st.oifs && node <> g.src
  then begin
    st.on_tree <- false;
    Bitset.remove g.detached node;
    match rpf_parent t ~node ~src:g.src with
    | None -> () (* detached by a partition; repair already cut the edge *)
    | Some parent ->
        ignore
          (Sim.schedule_after (Network.sim t.network)
             (hop_delay t ~node ~parent)
             (fun () ->
               let pst = state t g parent in
               let oif =
                 Network.iface_to t.network ~node:parent ~neighbor:node
               in
               if Bitset.mem pst.oifs oif then begin
                 Bitset.remove pst.oifs oif;
                 remove_edge t g ~parent ~child:node
               end;
               maybe_prune t g ~node:parent))
  end

(* Detach [node] from any recorded parent other than [keep]: a reroute can
   leave the old parent still forwarding to us while a graft installs the
   new one. Never fires while routing is static. O(recorded parents of
   [node]): the parents live in the node's own state. *)
and detach_other_parents t g ~node ~keep =
  (* ascending, and a snapshot: remove_edge rewrites the field *)
  List.iter
    (fun p ->
      if p <> keep then begin
        let pst = state t g p in
        let oif = Network.iface_to t.network ~node:p ~neighbor:node in
        Bitset.remove pst.oifs oif;
        remove_edge t g ~parent:p ~child:node;
        maybe_prune t g ~node:p
      end)
    (state t g node).parents

(* Recorded edges as a sorted (parent, child) snapshot — iteration order
   of the former pair-set, safe to iterate while edges are removed. *)
let edges_snapshot g =
  let acc = ref [] in
  for c = Array.length g.row - 1 downto 0 do
    match g.row.(c) with
    | Some st -> List.iter (fun p -> acc := (p, c) :: !acc) st.parents
    | None -> ()
  done;
  List.sort
    (fun (p, c) (p', c') ->
      if p <> p' then Int.compare p p' else Int.compare c c')
    !acc

(* Sweep 1 of tree repair: cut every recorded edge of [g] that no longer
   lies on the child's reverse path toward the source (the upstream
   interface died or moved). Iterates a snapshot of the edge set, so the
   removals are safe. Returns the parents whose interface sets the cuts
   shrank: each may just have lost its last downstream interest and
   needs a prune check, which the scoped sweep would otherwise miss (the
   detached set tracks severed children, not severed parents). *)
let cut_invalid_edges t g =
  let cut_parents = Bitset.create () in
  List.iter
    (fun (p, c) ->
      let valid = c <> g.src && rpf_parent t ~node:c ~src:g.src = Some p in
      if not valid then begin
        let pst = state t g p in
        let oif = Network.iface_to t.network ~node:p ~neighbor:c in
        Bitset.remove pst.oifs oif;
        remove_edge t g ~parent:p ~child:c;
        t.edges_repaired <- t.edges_repaired + 1;
        Bitset.add cut_parents p
      end)
    (edges_snapshot g);
  cut_parents

(* Sweeps 2 and 3 for one node:
   2. re-graft it if it still wants traffic (local membership or live
      downstream interest) but has no parent edge — re-attachment
      propagates with hop delays, so recovery time is measurable;
   3. start a prune if it is on the tree with neither membership nor
      downstream interest, so severed branches do not linger.
   [graft] and [maybe_prune] only schedule future work (every hop costs
   at least a propagation delay), so the edges cannot change during a
   repair sweep and the live parents equal a snapshot taken at sweep
   start. *)
let regraft_or_prune t g n st =
  if n <> g.src && st.on_tree then begin
    let interested = st.local || not (Bitset.is_empty st.oifs) in
    if not interested then maybe_prune t g ~node:n
    else if st.parents = [] then graft t g ~node:n
  end

(* Event-scoped repair of one group: sweep 1 cuts, then sweeps 2–3 walk
   only the nodes the event can have left inconsistent — the detached
   set (subtree roots the cuts just severed plus any node still waiting
   for a graft) and the parents the cuts stripped of a child (which may
   just have lost their last downstream interest) — instead of every
   node row. Any other on-tree node still has a valid parent edge and
   unchanged interest, so it needs neither a graft nor a prune and
   restricting the sweep to this set loses nothing. *)
let repair_group t g =
  let work = cut_invalid_edges t g in
  (* union in a copy: the sweep itself moves nodes in and out of the
     live detached set *)
  Bitset.union_into ~into:work g.detached;
  Bitset.iter (fun n -> regraft_or_prune t g n (state t g n)) work

let records_edge g ~parent ~child =
  Array.length g.row > 0
  && match g.row.(child) with Some st -> List.mem parent st.parents | None -> false

(* Observer entry point: one pass per topology event, bounded to the
   groups the event can have touched. A group's recorded edges and
   detached nodes are validated against its source's routing table, so
   repair is needed only where that table moved — the groups rooted at
   the event's affected destinations (their reverse paths crossed the
   link). A group that records an edge on the link itself qualifies
   too, as a defensive check: after every repair pass each recorded
   edge is its child's RPF edge, so flipping its link always moves the
   source's table. An idle group (no members, no recorded edges, no
   detached node) has no tree to cut and nobody to re-attach, and is
   skipped without being read further. *)
let repair_event t (ev : Network.topology_event) =
  t.repair_passes <- t.repair_passes + 1;
  for id = 0 to t.next_group - 1 do
    let g = t.groups.(id) in
    if
      not
        (Bitset.is_empty g.members && g.edge_count = 0
        && Bitset.is_empty g.detached)
      && (List.mem g.src ev.affected_destinations
         || records_edge g ~parent:ev.a ~child:ev.b
         || records_edge g ~parent:ev.b ~child:ev.a)
    then repair_group t g
  done

let create ~network ?(leave_latency = Time.span_of_sec 1)
    ?(expedited_leave = false) () =
  let t =
    {
      network;
      arena = Network.arena network;
      node_count = Network.node_count network;
      oif_scratch = Array.make 8 0;
      leave_latency;
      expedited_leave;
      groups = [||];
      next_group = 0;
      repair_passes = 0;
      edges_repaired = 0;
      crashed_locals = Hashtbl.create 8;
    }
  in
  for n = 0 to Network.node_count network - 1 do
    Network.set_mcast_handler network n (fun pkt ~in_iface ->
        handle t n pkt ~in_iface)
  done;
  Network.add_topology_observer network (fun ev -> repair_event t ev);
  t

let join t ~node ~group =
  let g = find t group in
  let st = state t g node in
  if not st.local then add_member g node;
  st.local <- true;
  st.leave_epoch <- st.leave_epoch + 1;
  if not st.on_tree then begin
    st.on_tree <- true;
    if node <> g.src then begin
      Bitset.add g.detached node;
      graft t g ~node
    end
  end

let leave t ~node ~group =
  let g = find t group in
  let st = state t g node in
  if st.local then begin
    st.local <- false;
    remove_member g node;
    st.leave_epoch <- st.leave_epoch + 1;
    if t.expedited_leave then maybe_prune t g ~node
    else begin
      let epoch = st.leave_epoch in
      ignore
        (Sim.schedule_after (Network.sim t.network) t.leave_latency (fun () ->
             if st.leave_epoch = epoch && not st.local then
               maybe_prune t g ~node))
    end
  end

let is_member t ~node ~group = (state t (find t group) node).local

(* A node crash wipes every trace of the node from the group tables: the
   per-link repairs the crash's link-downs triggered have already cut the
   edges the routing change invalidated, so this is mostly membership and
   interest bookkeeping — plus a defensive cut of any edge the repairs
   did not reach (a crash called outside [Faults] sees them). Severed
   children land in the detached sets as usual and re-graft through the
   normal repair path once connectivity returns. Local memberships are
   remembered for [recover_node]. *)
let crash_node t ~node =
  let wiped = ref [] in
  for id = t.next_group - 1 downto 0 do
    let g = t.groups.(id) in
    if Array.length g.row > 0 then
      match g.row.(node) with
      | None -> ()
      | Some st ->
          if st.local then begin
            wiped := id :: !wiped;
            st.local <- false;
            remove_member g node
          end;
          (* void any in-flight leave timer *)
          st.leave_epoch <- st.leave_epoch + 1;
          (* cut upstream edges (parents still forwarding to us) *)
          List.iter
            (fun p ->
              let pst = state t g p in
              let oif = Network.iface_to t.network ~node:p ~neighbor:node in
              Bitset.remove pst.oifs oif;
              remove_edge t g ~parent:p ~child:node)
            st.parents;
          (* cut downstream edges (we were forwarding to children) *)
          Bitset.iter
            (fun oif ->
              let c = Network.neighbor t.network ~node ~iface:oif in
              remove_edge t g ~parent:node ~child:c)
            st.oifs;
          Bitset.clear st.oifs;
          st.on_tree <- false;
          Bitset.remove g.detached node
  done;
  Hashtbl.replace t.crashed_locals node !wiped

(* Rebuild from RPF joins: by the time this runs the node's links are
   back up, so each remembered membership re-grafts along the fresh
   reverse path exactly as an original join would. Members elsewhere
   whose subtrees the crash severed re-attach through [repair_event]
   when the restored links' topology events fire — nothing here needs
   to touch them. *)
let recover_node t ~node =
  match Hashtbl.find_opt t.crashed_locals node with
  | None -> ()
  | Some groups ->
      Hashtbl.remove t.crashed_locals node;
      List.iter (fun g -> join t ~node ~group:g) groups

let members t ~group = Bitset.elements (find t group).members
let tree_edges t ~group = edges_snapshot (find t group)
let on_tree t ~node ~group = (state t (find t group) node).on_tree

let version t ~group =
  if group < 0 || group >= t.next_group then 0 else t.groups.(group).version

let delivered t ~group =
  if group < 0 || group >= t.next_group then 0 else t.groups.(group).delivered

let repair_passes t = t.repair_passes
let edges_repaired t = t.edges_repaired
