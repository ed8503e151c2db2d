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
}

(* A group's recorded forwarding edges, child-indexed: [parents.(c)] is
   the ascending list of parents with an installed edge toward [c] —
   almost always empty or a singleton, transiently two mid-repair (a
   reroute can leave the old parent forwarding while the graft installs
   the new one). Replaces the former sorted pair-set: detaching a node's
   other parents and the has-a-parent test are O(degree) instead of a
   scan of the whole edge set, which is what a 100k-receiver join storm
   actually spends its time on. *)
type tree = {
  parents : Addr.node_id list array;
  mutable edge_count : int;
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
  (* Group ids are dense (allocated by [fresh_group]), so the per-packet
     tables are arrays indexed by group — the forwarding path does plain
     loads instead of hashing. Rows of [state_rows] are node-indexed and
     allocated on a group's first touch. *)
  mutable src_of : Addr.node_id array;  (* -1 = unknown group *)
  mutable state_rows : gstate option array array;
  mutable delivered_by_group : int array;
  mutable versions : int array;
      (** per group, bumped on every change to its recorded edges or
          local membership: what a topology capture reads *)
  (* Derived views maintained incrementally on join/leave/graft/prune so
     [members] and [tree_edges] — queried every TopoSense decision epoch —
     don't fold the whole (node, group) table. Node and group ids are
     dense, so the sets are bitsets (updated in place). *)
  members_by_group : (Addr.group_id, Bitset.t) Hashtbl.t;
  edges_by_group : (Addr.group_id, tree) Hashtbl.t;
  (* Repair indexes, so a topology event only visits the groups it can
     have touched: groups keyed by their source (a group needs repair
     exactly when its source's routing table moved), groups keyed by the
     physical links their recorded edges ride (belt and braces for the
     link itself), and per group the detached set — on-tree nodes with no
     recorded parent edge, i.e. severed subtree roots and nodes whose
     graft is still in flight. *)
  groups_by_src : (Addr.node_id, Bitset.t) Hashtbl.t;
  groups_by_link : (Addr.node_id * Addr.node_id, Bitset.t) Hashtbl.t;
  detached_by_group : (Addr.group_id, Bitset.t) Hashtbl.t;
  mutable next_group : Addr.group_id;
  mutable repair_passes : int;
  mutable edges_repaired : int;
  (* Local memberships wiped by a node crash, remembered so recovery can
     re-issue the RPF joins that rebuild the node's group state. *)
  crashed_locals : (Addr.node_id, Addr.group_id list) Hashtbl.t;
}

let link_key a b = if a < b then (a, b) else (b, a)

let get_set tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
      let s = Bitset.create () in
      Hashtbl.add tbl key s;
      s

let grow_groups t g =
  let cap = Array.length t.src_of in
  if g >= cap then begin
    let ncap = max 8 (max (g + 1) (2 * cap)) in
    let nsrc = Array.make ncap (-1) in
    Array.blit t.src_of 0 nsrc 0 cap;
    t.src_of <- nsrc;
    let nrows = Array.make ncap [||] in
    Array.blit t.state_rows 0 nrows 0 cap;
    t.state_rows <- nrows;
    let ndel = Array.make ncap 0 in
    Array.blit t.delivered_by_group 0 ndel 0 cap;
    t.delivered_by_group <- ndel;
    let nver = Array.make ncap 0 in
    Array.blit t.versions 0 nver 0 cap;
    t.versions <- nver
  end

(* Every change to what [members] and [tree_edges] return, and to the
   [local] flags that [join], [leave] and [crash_node] flip together
   with membership, goes through [add_member], [remove_member],
   [add_edge] or [remove_edge]; each bumps the group's version. *)
let bump t group =
  grow_groups t group;
  t.versions.(group) <- t.versions.(group) + 1

let add_member t ~group ~node =
  bump t group;
  Bitset.add (get_set t.members_by_group group) node

let remove_member t ~group ~node =
  bump t group;
  match Hashtbl.find_opt t.members_by_group group with
  | None -> ()
  | Some cur -> Bitset.remove cur node

let detached_add t ~group ~node =
  Bitset.add (get_set t.detached_by_group group) node

let detached_remove t ~group ~node =
  match Hashtbl.find_opt t.detached_by_group group with
  | None -> ()
  | Some cur -> Bitset.remove cur node

let state t node group =
  grow_groups t group;
  let row = t.state_rows.(group) in
  let row =
    if Array.length row > 0 then row
    else begin
      let r = Array.make t.node_count None in
      t.state_rows.(group) <- r;
      r
    end
  in
  match row.(node) with
  | Some s -> s
  | None ->
      let s =
        {
          oifs = Bitset.create ~capacity:8 ();
          local = false;
          on_tree = false;
          leave_epoch = 0;
        }
      in
      row.(node) <- Some s;
      s

let tree_of t group =
  match Hashtbl.find_opt t.edges_by_group group with
  | Some tr -> tr
  | None ->
      let tr = { parents = Array.make t.node_count []; edge_count = 0 } in
      Hashtbl.add t.edges_by_group group tr;
      tr

let add_edge t ~group ~parent ~child =
  bump t group;
  let tr = tree_of t group in
  let ps = tr.parents.(child) in
  if not (List.mem parent ps) then begin
    (* keep ascending so iteration order matches the former sorted set *)
    tr.parents.(child) <- List.sort compare (parent :: ps);
    tr.edge_count <- tr.edge_count + 1
  end;
  Bitset.add (get_set t.groups_by_link (link_key parent child)) group;
  (* the child has a parent again *)
  detached_remove t ~group ~node:child

let remove_edge t ~group ~parent ~child =
  bump t group;
  match Hashtbl.find_opt t.edges_by_group group with
  | None -> ()
  | Some tr ->
      let ps = tr.parents.(child) in
      if List.mem parent ps then begin
        tr.parents.(child) <- List.filter (fun p -> p <> parent) ps;
        tr.edge_count <- tr.edge_count - 1
      end;
      (* drop the group from the link index only when no recorded edge
         rides the link in either direction any more *)
      if not (List.mem child tr.parents.(parent)) then begin
        match Hashtbl.find_opt t.groups_by_link (link_key parent child) with
        | None -> ()
        | Some gs -> Bitset.remove gs group
      end;
      if (state t child group).on_tree then detached_add t ~group ~node:child

let source t ~group =
  if group < 0 || group >= Array.length t.src_of || t.src_of.(group) < 0 then
    invalid_arg "Multicast.Router: unknown group";
  t.src_of.(group)

let count_delivery t group =
  t.delivered_by_group.(group) <- t.delivered_by_group.(group) + 1

(* Data-plane forwarding, installed on every node; owns the packet
   handle. Local delivery borrows it; the fan-out sends a copy per
   outgoing interface except the last, which gets the original — so
   exactly one send consumes it, and a packet nobody wants is freed. *)
let handle t node (pkt : Net.Packet.t) ~in_iface =
  if not (Net.Packet.dst_is_multicast t.arena pkt) then
    Net.Packet.free t.arena pkt
  else begin
    let group = Net.Packet.dst_group t.arena pkt in
    let src = source t ~group in
    (* RPF: the packet must arrive over the interface on the unicast
       shortest path toward the source. Comparing neighbor ids avoids a
       neighbor->interface lookup on the per-packet path. *)
    let rpf_ok =
      match in_iface with
      | None -> node = src
      | Some i ->
          node <> src
          && Network.neighbor t.network ~node ~iface:i
             = Net.Routing.next_hop (Network.routing t.network) ~from:node
                 ~dst:src
    in
    if not rpf_ok then Net.Packet.free t.arena pkt
    else begin
      let st = state t node group in
      if st.local then begin
        count_delivery t group;
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
  let g = t.next_group in
  t.next_group <- t.next_group + 1;
  grow_groups t g;
  t.src_of.(g) <- source;
  Bitset.add (get_set t.groups_by_src source) g;
  g

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
let rec graft t ~node ~group =
  let src = source t ~group in
  if node <> src then
    match rpf_parent t ~node ~src with
    | None -> () (* partitioned; the repair pass after reconnection retries *)
    | Some parent ->
        ignore
          (Sim.schedule_after (Network.sim t.network)
             (hop_delay t ~node ~parent)
             (fun () ->
               if rpf_parent t ~node ~src <> Some parent then begin
                 let st = state t node group in
                 if st.on_tree && (st.local || not (Bitset.is_empty st.oifs))
                 then graft t ~node ~group
               end
               else begin
                 detach_other_parents t ~group ~node ~keep:parent;
                 let pst = state t parent group in
                 let oif =
                   Network.iface_to t.network ~node:parent ~neighbor:node
                 in
                 if not (Bitset.mem pst.oifs oif) then begin
                   Bitset.add pst.oifs oif;
                   add_edge t ~group ~parent ~child:node
                 end;
                 if not pst.on_tree then begin
                   pst.on_tree <- true;
                   if parent <> src then detached_add t ~group ~node:parent;
                   graft t ~node:parent ~group
                 end
               end))

(* Prune upward: a node with no local member and no downstream interest
   leaves the tree and tells its parent after one hop delay. *)
and maybe_prune t ~node ~group =
  let src = source t ~group in
  let st = state t node group in
  if st.on_tree && (not st.local) && Bitset.is_empty st.oifs && node <> src
  then begin
    st.on_tree <- false;
    detached_remove t ~group ~node;
    match rpf_parent t ~node ~src with
    | None -> () (* detached by a partition; repair already cut the edge *)
    | Some parent ->
        ignore
          (Sim.schedule_after (Network.sim t.network)
             (hop_delay t ~node ~parent)
             (fun () ->
               let pst = state t parent group in
               let oif =
                 Network.iface_to t.network ~node:parent ~neighbor:node
               in
               if Bitset.mem pst.oifs oif then begin
                 Bitset.remove pst.oifs oif;
                 remove_edge t ~group ~parent ~child:node
               end;
               maybe_prune t ~node:parent ~group))
  end

(* Detach [node] from any recorded parent other than [keep]: a reroute can
   leave the old parent still forwarding to us while a graft installs the
   new one. Never fires while routing is static. O(recorded parents of
   [node]) — the child-indexed tree makes this a local lookup instead of
   a scan of every edge in the group. *)
and detach_other_parents t ~group ~node ~keep =
  match Hashtbl.find_opt t.edges_by_group group with
  | None -> ()
  | Some tr -> (
      match List.filter (fun p -> p <> keep) tr.parents.(node) with
      | [] -> ()
      | others ->
          (* ascending, and a snapshot: remove_edge mutates the list *)
          List.iter
            (fun p ->
              let pst = state t p group in
              let oif = Network.iface_to t.network ~node:p ~neighbor:node in
              Bitset.remove pst.oifs oif;
              remove_edge t ~group ~parent:p ~child:node;
              maybe_prune t ~node:p ~group)
            others)

(* Recorded edges as a sorted (parent, child) snapshot — iteration order
   of the former pair-set, safe to iterate while edges are removed. *)
let edges_snapshot tr =
  let acc = ref [] in
  for c = Array.length tr.parents - 1 downto 0 do
    List.iter (fun p -> acc := (p, c) :: !acc) tr.parents.(c)
  done;
  List.sort
    (fun (p, c) (p', c') ->
      if p <> p' then Int.compare p p' else Int.compare c c')
    !acc

(* Sweep 1 of tree repair: cut every recorded edge of [group] that no
   longer lies on the child's reverse path toward the source (the
   upstream interface died or moved). Iterates a snapshot of the edge
   set, so the removals are safe. Returns the parents whose interface
   sets the cuts shrank: each may just have lost its last downstream
   interest and needs a prune check, which the scoped sweep would
   otherwise miss (the detached set tracks severed children, not
   severed parents). *)
let cut_invalid_edges t ~group ~src =
  let cut_parents = Bitset.create () in
  (match Hashtbl.find_opt t.edges_by_group group with
  | None -> ()
  | Some tr ->
      List.iter
        (fun (p, c) ->
          let valid = c <> src && rpf_parent t ~node:c ~src = Some p in
          if not valid then begin
            let pst = state t p group in
            let oif = Network.iface_to t.network ~node:p ~neighbor:c in
            Bitset.remove pst.oifs oif;
            remove_edge t ~group ~parent:p ~child:c;
            t.edges_repaired <- t.edges_repaired + 1;
            Bitset.add cut_parents p
          end)
        (edges_snapshot tr));
  cut_parents

(* Does [n] have a recorded parent edge? [graft] and [maybe_prune] only
   schedule future work (every hop costs at least a propagation delay),
   so the edge set cannot change during a repair sweep and the live
   lookup equals a snapshot taken at sweep start. *)
let has_parent t ~group n =
  match Hashtbl.find_opt t.edges_by_group group with
  | None -> false
  | Some tr -> tr.parents.(n) <> []

(* Sweeps 2 and 3 for one node:
   2. re-graft it if it still wants traffic (local membership or live
      downstream interest) but has no parent edge — re-attachment
      propagates with hop delays, so recovery time is measurable;
   3. start a prune if it is on the tree with neither membership nor
      downstream interest, so severed branches do not linger. *)
let regraft_or_prune t ~group ~src n st =
  if n <> src && st.on_tree then begin
    let interested = st.local || not (Bitset.is_empty st.oifs) in
    if not interested then maybe_prune t ~node:n ~group
    else if not (has_parent t ~group n) then graft t ~node:n ~group
  end

(* A group with no members, no recorded edges and no detached node has no
   tree to cut and nobody to re-attach: all three sweeps would no-op. *)
let group_idle t ~group =
  (match Hashtbl.find_opt t.members_by_group group with
  | Some m -> Bitset.is_empty m
  | None -> true)
  && (match Hashtbl.find_opt t.edges_by_group group with
     | Some tr -> tr.edge_count = 0
     | None -> true)
  && (match Hashtbl.find_opt t.detached_by_group group with
     | Some d -> Bitset.is_empty d
     | None -> true)

(* Event-scoped repair of one group: sweep 1 cuts, then sweeps 2–3 walk
   only the nodes the event can have left inconsistent — the detached
   set (subtree roots the cuts just severed plus any node still waiting
   for a graft) and the parents the cuts stripped of a child (which may
   just have lost their last downstream interest) — instead of every
   node row. Any other on-tree node still has a valid parent edge and
   unchanged interest, so it needs neither a graft nor a prune and
   restricting the sweep to this set loses nothing. *)
let repair_group t ~group =
  let src = t.src_of.(group) in
  if src >= 0 then begin
    let work = cut_invalid_edges t ~group ~src in
    (* union in a copy: the sweep itself moves nodes in and out of the
       live detached set *)
    (match Hashtbl.find_opt t.detached_by_group group with
    | Some det -> Bitset.union_into ~into:work det
    | None -> ());
    Bitset.iter
      (fun n -> regraft_or_prune t ~group ~src n (state t n group))
      work
  end

(* Observer entry point: one pass per topology event, bounded to the
   groups the event can have touched. A group's recorded edges and
   detached nodes are validated against its source's routing table, so
   repair is needed only where that table moved — the groups rooted at
   the event's affected destinations (their reverse paths crossed the
   link) — plus, belt and braces, any group with a recorded tree edge
   riding the changed link itself. Every other group's state provably
   still agrees with the tables and is skipped without being read. *)
let repair_event t (ev : Network.topology_event) =
  t.repair_passes <- t.repair_passes + 1;
  let candidates = Bitset.create () in
  List.iter
    (fun d ->
      match Hashtbl.find_opt t.groups_by_src d with
      | Some gs -> Bitset.union_into ~into:candidates gs
      | None -> ())
    ev.affected_destinations;
  (match Hashtbl.find_opt t.groups_by_link (link_key ev.a ev.b) with
  | Some gs -> Bitset.union_into ~into:candidates gs
  | None -> ());
  Bitset.iter
    (fun g ->
      if t.src_of.(g) >= 0 && not (group_idle t ~group:g) then
        repair_group t ~group:g)
    candidates

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
      src_of = [||];
      state_rows = [||];
      delivered_by_group = [||];
      versions = [||];
      members_by_group = Hashtbl.create 64;
      edges_by_group = Hashtbl.create 64;
      groups_by_src = Hashtbl.create 64;
      groups_by_link = Hashtbl.create 64;
      detached_by_group = Hashtbl.create 64;
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
  let src = source t ~group in
  let st = state t node group in
  if not st.local then add_member t ~group ~node;
  st.local <- true;
  st.leave_epoch <- st.leave_epoch + 1;
  if not st.on_tree then begin
    st.on_tree <- true;
    if node <> src then begin
      detached_add t ~group ~node;
      graft t ~node ~group
    end
  end

let leave t ~node ~group =
  let st = state t node group in
  if st.local then begin
    st.local <- false;
    remove_member t ~group ~node;
    st.leave_epoch <- st.leave_epoch + 1;
    if t.expedited_leave then maybe_prune t ~node ~group
    else begin
      let epoch = st.leave_epoch in
      ignore
        (Sim.schedule_after (Network.sim t.network) t.leave_latency (fun () ->
             if st.leave_epoch = epoch && not st.local then
               maybe_prune t ~node ~group))
    end
  end

let is_member t ~node ~group = (state t node group).local

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
  for g = t.next_group - 1 downto 0 do
    if t.src_of.(g) >= 0 then begin
      let row = t.state_rows.(g) in
      if Array.length row > 0 then
        match row.(node) with
        | None -> ()
        | Some st ->
            if st.local then begin
              wiped := g :: !wiped;
              st.local <- false;
              remove_member t ~group:g ~node
            end;
            (* void any in-flight leave timer *)
            st.leave_epoch <- st.leave_epoch + 1;
            (* cut upstream edges (parents still forwarding to us) *)
            (match Hashtbl.find_opt t.edges_by_group g with
            | None -> ()
            | Some tr ->
                List.iter
                  (fun p ->
                    let pst = state t p g in
                    let oif =
                      Network.iface_to t.network ~node:p ~neighbor:node
                    in
                    Bitset.remove pst.oifs oif;
                    remove_edge t ~group:g ~parent:p ~child:node)
                  tr.parents.(node));
            (* cut downstream edges (we were forwarding to children) *)
            Bitset.iter
              (fun oif ->
                let c = Network.neighbor t.network ~node ~iface:oif in
                remove_edge t ~group:g ~parent:node ~child:c)
              st.oifs;
            Bitset.clear st.oifs;
            st.on_tree <- false;
            detached_remove t ~group:g ~node
    end
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

(* Both views are maintained incrementally; bitset iteration and the
   child-indexed edge collection are ascending, so the sorted lists match
   the seed's fold + sort over the whole state table element for
   element. *)
let members t ~group =
  match Hashtbl.find_opt t.members_by_group group with
  | None -> []
  | Some s -> Bitset.elements s

let tree_edges t ~group =
  match Hashtbl.find_opt t.edges_by_group group with
  | None -> []
  | Some tr -> edges_snapshot tr

let on_tree t ~node ~group = (state t node group).on_tree

let version t ~group =
  if group < 0 || group >= Array.length t.versions then 0
  else t.versions.(group)

let delivered t ~group =
  if group < 0 || group >= Array.length t.delivered_by_group then 0
  else t.delivered_by_group.(group)

let repair_passes t = t.repair_passes
let edges_repaired t = t.edges_repaired
