module Time = Engine.Time

type t = {
  node_count : int;
  (* A pendant is a node with one link whose neighbour has more than
     one. No shortest path between two other nodes crosses it, so its
     routes are answered from its link and it holds no column entry.
     Every other node is core: [core.(n)] is its dense core index, or -1
     for a pendant, and [node.(c)] maps a core index back to its node.
     Core indices ascend with node ids, so a heap key (distance, core
     index) orders exactly as (distance, node id). *)
  core : int array;
  node : Addr.node_id array;
  (* A pendant's one link: its neighbour, the link's delay, and
     ['\000'] while the link is disabled. Unread for core nodes. *)
  hub : Addr.node_id array;
  hub_wt : Time.span array;
  hub_up : Bytes.t;
  (* next.(dst).(c) = neighbor of core node [c] on the shortest path
     toward dst, or -1 when dst is unreachable from it. A destination's
     column is [||] until the first query that needs it: materializing
     all columns up front is V Dijkstras, while a multicast workload only
     ever routes toward sources and control-plane endpoints. *)
  next : Addr.node_id array array;
  dist : Time.span array array;
  (* The core adjacency in compressed sparse rows, retained so tables
     can be recomputed when links fail or recover. Core node [c]'s
     directed entries are [first.(c) .. first.(c+1) - 1]; entry [e]
     reaches core node [nbr.(e)] at delay [wt.(e)], and a row lists its
     neighbors in ascending order, which fixes the relaxation order.
     [up] holds one byte per entry, ['\000'] while the link is
     disabled. *)
  first : int array;
  nbr : int array;
  wt : Time.span array;
  up : Bytes.t;
  (* The pass heap, reused by every Dijkstra over this table. *)
  mutable heap_dist : int array;
  mutable heap_node : int array;
  mutable heap_size : int;
  mutable recomputes : int;
  mutable materialized : int;
  mutable heap_pushes : int;
}

(* ---------- the pass heap ---------- *)

(* A binary min-heap on [(dist, node)] held in two int arrays, so a push
   or pop allocates nothing and a comparison is two int loads. A node is
   pushed again only at a strictly smaller distance, so keys are unique
   and the pop order does not depend on the heap's shape. Sifts carry
   the displaced entry in registers ("hole" technique); the unsafe
   accesses are bounds-proven — every index is < size <= capacity. The
   [int array] annotations keep the heap monomorphic: a polymorphic one
   would call [compare] and test every access for a float array. *)
let[@inline] set (hd : int array) (hn : int array) i d n =
  Array.unsafe_set hd i d;
  Array.unsafe_set hn i n

(* Whether entry [i] sorts before the key [(d, n)]. *)
let[@inline] before (hd : int array) (hn : int array) i d n =
  let di = Array.unsafe_get hd i in
  di < d || (di = d && Array.unsafe_get hn i < n)

let[@inline] move hd hn ~src ~dst =
  set hd hn dst (Array.unsafe_get hd src) (Array.unsafe_get hn src)

let rec hole_up hd hn d n i =
  let p = (i - 1) / 2 in
  if i > 0 && not (before hd hn p d n) then begin
    move hd hn ~src:p ~dst:i;
    hole_up hd hn d n p
  end
  else set hd hn i d n

let rec sift_down hd hn size d n i =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < size && before hd hn (l + 1) hd.(l) hn.(l) then l + 1 else l
  in
  if c < size && before hd hn c d n then begin
    move hd hn ~src:c ~dst:i;
    sift_down hd hn size d n c
  end
  else set hd hn i d n

let push t d n =
  let cap = Array.length t.heap_dist in
  if t.heap_size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let hd = Array.make ncap 0 and hn = Array.make ncap 0 in
    Array.blit t.heap_dist 0 hd 0 cap;
    Array.blit t.heap_node 0 hn 0 cap;
    t.heap_dist <- hd;
    t.heap_node <- hn
  end;
  hole_up t.heap_dist t.heap_node d n t.heap_size;
  t.heap_size <- t.heap_size + 1

(* ---------- Dijkstra passes ---------- *)

let[@inline] is_up t e = Bytes.unsafe_get t.up e <> '\000'
let[@inline] hub_is_up t p = Bytes.unsafe_get t.hub_up p <> '\000'

(* Pops the pass heap empty, relaxing each finalized core node's live
   entries into a column [dist]/[next] rooted at core node [root], and
   returns the number of pushes. A strictly shorter path rewrites the
   entry and pushes the neighbor. An equality-only rewrite (same
   distance, lower-id neighbor wins the tie-break) updates [next.(m)]
   without a push: the node's distance is unchanged, its earlier
   relaxation already offered neighbors the same candidate distances,
   and a canonical next hop depends on distances alone — re-relaxing
   the adjacency would redo identical work (the same argument
   [restore_edge_dst] relies on). *)
let rec drain t ~root dist next pushes =
  if t.heap_size = 0 then pushes
  else begin
    let hd = t.heap_dist and hn = t.heap_node and last = t.heap_size - 1 in
    let d = Array.unsafe_get hd 0 and c = Array.unsafe_get hn 0 in
    t.heap_size <- last;
    if last > 0 then sift_down hd hn last hd.(last) hn.(last) 0;
    let pushes = ref pushes in
    if d = dist.(c) then begin
      let n = t.node.(c) in
      for e = t.first.(c) to t.first.(c + 1) - 1 do
        if is_up t e then begin
          let m = t.nbr.(e) in
          let nd = d + t.wt.(e) in
          if nd < dist.(m) then begin
            dist.(m) <- nd;
            next.(m) <- n;
            push t nd m;
            incr pushes
          end
          else if nd = dist.(m) && next.(m) > n && m <> root then
            next.(m) <- n
        end
      done
    end;
    drain t ~root dist next !pushes
  end

(* The core node a column is rooted at: the destination itself, or a
   pendant destination's neighbour. *)
let root t dst =
  let c = t.core.(dst) in
  if c >= 0 then c else t.core.(t.hub.(dst))

(* One Dijkstra rooted at [dst] gives, for every core node, its next hop
   toward [dst]: the neighbor through which the node was finalized.
   Disabled entries are skipped. A pendant destination seeds the pass at
   its neighbour, one link's delay out with the pendant as next hop, and
   leaves the column all-unreachable while that link is down. *)
let fill_column t dst =
  let core_count = Array.length t.node in
  let dist = Array.make core_count max_int in
  let next = Array.make core_count (-1) in
  let root = root t dst in
  let pendant = t.core.(dst) < 0 in
  if (not pendant) || hub_is_up t dst then begin
    let d0 = if pendant then t.hub_wt.(dst) else 0 in
    dist.(root) <- d0;
    if pendant then next.(root) <- dst;
    push t d0 root;
    t.heap_pushes <- t.heap_pushes + 1 + drain t ~root dist next 0
  end;
  t.next.(dst) <- next;
  t.dist.(dst) <- dist

let is_materialized t d = Array.length t.next.(d) <> 0

(* First query for a destination computes its column against the live
   link set — bit-identical to what an eager [compute] plus the
   incremental updates would have produced, since both leave the unique
   canonical table for the live topology. Not billed to [recomputes]:
   like the eager initial computation, it is creation, not damage. *)
let materialize_dst t d =
  fill_column t d;
  t.materialized <- t.materialized + 1

let ensure t d = if not (is_materialized t d) then materialize_dst t d

let recompute_dst t d =
  t.recomputes <- t.recomputes + 1;
  fill_column t d

(* Offers core node [m] the path over the restored edge of weight [w]
   from core node [c]; returns whether [m]'s entry changed. *)
let splice_seed t ~root dist next ~w c m =
  if dist.(c) < max_int && m <> root then begin
    let nd = dist.(c) + w and n = t.node.(c) in
    if nd < dist.(m) then begin
      dist.(m) <- nd;
      next.(m) <- n;
      push t nd m;
      true
    end
    else if nd = dist.(m) && next.(m) > n then begin
      next.(m) <- n;
      true
    end
    else false
  end
  else false

(* Splice the restored edge (a,b) of weight [w] back into destination
   [d]'s tables, which are exact for the topology without it. A Dijkstra
   pass leaves a canonical table — [dist.(m)] is the shortest distance
   and [next.(m)] the smallest-id neighbor on a shortest path — and that
   invariant characterizes the tables independently of how they were
   produced. A distance can only improve through the restored edge, so if
   neither endpoint gains a shorter path through the other (nor an
   equal-length one through a lower-id neighbor, the tie-break), the
   destination's tables are already canonical for the restored topology
   and it is skipped without touching the counter. Otherwise the improved
   endpoint seeds a Dijkstra confined to the improved region, relaxing
   with the same tie-break over the same sorted adjacency: nodes whose
   distance falls are pushed and finalized in (dist, id) order, while an
   equal-length discovery only lowers [next.(m)] — distances are
   unchanged there, so nothing propagates (a neighbor's canonical next
   hop depends on distances alone). Any node not reached this way kept
   both its distance and, by the old canonicity, its minimal next hop, so
   the result is bit-identical to a fresh [compute]. Returns whether the
   destination's tables changed. *)
let restore_edge_dst t ~d ~a ~b ~w =
  let dist = t.dist.(d) and next = t.next.(d) and root = root t d in
  let touched_b = splice_seed t ~root dist next ~w a b in
  let touched_a = splice_seed t ~root dist next ~w b a in
  ignore (drain t ~root dist next 0 : int);
  let touched = touched_a || touched_b in
  if touched then t.recomputes <- t.recomputes + 1;
  touched

let compute topo =
  if not (Topology.is_connected topo) then
    invalid_arg "Routing.compute: topology is not connected";
  let node_count = Topology.node_count topo in
  let links = Topology.links topo in
  (* Each node's degree, and its last-listed link: a node of degree 1
     has no other. *)
  let degree = Array.make node_count 0 in
  let hub = Array.make node_count (-1) and hub_wt = Array.make node_count 0 in
  let attach n m w =
    degree.(n) <- degree.(n) + 1;
    hub.(n) <- m;
    hub_wt.(n) <- w
  in
  List.iter
    (fun (l : Topology.link_spec) ->
      attach l.a l.b l.delay;
      attach l.b l.a l.delay)
    links;
  let core = Array.make node_count (-1) and core_count = ref 0 in
  for n = 0 to node_count - 1 do
    if not (degree.(n) = 1 && degree.(hub.(n)) > 1) then begin
      core.(n) <- !core_count;
      incr core_count
    end
  done;
  let core_count = !core_count in
  let node = Array.make core_count 0 in
  Array.iteri (fun n c -> if c >= 0 then node.(c) <- n) core;
  let adj = Array.make core_count [] in
  List.iter
    (fun (l : Topology.link_spec) ->
      let a = core.(l.a) and b = core.(l.b) in
      if a >= 0 && b >= 0 then begin
        adj.(a) <- (b, l.delay) :: adj.(a);
        adj.(b) <- (a, l.delay) :: adj.(b)
      end)
    links;
  let first = Array.make (core_count + 1) 0 in
  Array.iteri (fun c ns -> first.(c + 1) <- first.(c) + List.length ns) adj;
  let entries = first.(core_count) in
  let nbr = Array.make entries 0 and wt = Array.make entries 0 in
  Array.iteri
    (fun c ns ->
      List.iteri
        (fun k (m, w) ->
          nbr.(first.(c) + k) <- m;
          wt.(first.(c) + k) <- w)
        (List.sort compare ns))
    adj;
  {
    node_count;
    core;
    node;
    hub;
    hub_wt;
    hub_up = Bytes.make node_count '\001';
    next = Array.make node_count [||];
    dist = Array.make node_count [||];
    first;
    nbr;
    wt;
    up = Bytes.make entries '\001';
    heap_dist = [||];
    heap_node = [||];
    heap_size = 0;
    recomputes = 0;
    materialized = 0;
    heap_pushes = 0;
  }

let prefetch_all t =
  for d = 0 to t.node_count - 1 do
    ensure t d
  done

let materialized_columns t = t.materialized
let heap_pushes t = t.heap_pushes

let check t from dst =
  if from < 0 || from >= t.node_count || dst < 0 || dst >= t.node_count then
    invalid_arg "Routing: unknown node"

(* The entry of core node [b] in core node [a]'s row, or -1 when they
   are not adjacent. *)
let entry t a b =
  let rec find e =
    if e = t.first.(a + 1) then -1
    else if t.nbr.(e) = b then e
    else find (e + 1)
  in
  find t.first.(a)

(* A pendant's link carries no core entry, so flipping it changes no
   core entry. The full tables it changes are the pendant's own, and
   those of every destination its neighbour reaches (the neighbour's
   column distance is finite), where the pendant's route turns live or
   dead. Only the pendant's own column holds state, and it is refilled.
   Each changed table bills one recompute, as a full-table pass did. *)
let flip_pendant_link t p enabled =
  let affected = ref [] in
  if hub_is_up t p <> enabled then begin
    Bytes.set t.hub_up p (if enabled then '\001' else '\000');
    let h = t.core.(t.hub.(p)) in
    for d = t.node_count - 1 downto 0 do
      if is_materialized t d && (d = p || t.dist.(d).(h) < max_int) then
        affected := d :: !affected
    done;
    t.recomputes <- t.recomputes + List.length !affected;
    if is_materialized t p then fill_column t p
  end;
  !affected

(* A link between core nodes [a] and [b]. Taking it down only
   invalidates destinations whose shortest-path tree crossed it:
   next.(d) is a tree rooted at [d], so the edge is in use iff one
   endpoint forwards through the other. An unused equal-cost edge was
   already rejected by the deterministic tie-break, so removing it
   cannot change any table. Restoring it runs [restore_edge_dst] per
   materialized destination: the restored edge is spliced in where it
   improves a reachable node and the improvement relaxed outward, or the
   destination is skipped entirely — either way the tables are exactly
   what a fresh computation would produce on the restored topology. *)
let flip_core_link t ~a ~b enabled =
  let ca = t.core.(a) and cb = t.core.(b) in
  let ab = entry t ca cb in
  if ab < 0 then invalid_arg "Routing.set_link_enabled: not adjacent";
  let affected = ref [] in
  if is_up t ab <> enabled then begin
    let byte = if enabled then '\001' else '\000' in
    Bytes.set t.up ab byte;
    Bytes.set t.up (entry t cb ca) byte;
    if enabled then begin
      let w = t.wt.(ab) in
      for d = t.node_count - 1 downto 0 do
        if is_materialized t d && restore_edge_dst t ~d ~a:ca ~b:cb ~w then
          affected := d :: !affected
      done
    end
    else
      for d = t.node_count - 1 downto 0 do
        if is_materialized t d && (t.next.(d).(ca) = b || t.next.(d).(cb) = a)
        then begin
          recompute_dst t d;
          affected := d :: !affected
        end
      done
  end;
  !affected

(* Both directions are incremental and bounded to the materialized
   destinations whose tables actually change; a column nobody has
   queried holds no state to maintain, and will be computed against the
   live link set if a later query materializes it. Returns the
   materialized destinations whose tables changed, in ascending order. *)
let set_link_enabled t ~a ~b enabled =
  check t a b;
  if a = b then invalid_arg "Routing.set_link_enabled: a = b";
  if t.core.(a) >= 0 && t.core.(b) >= 0 then flip_core_link t ~a ~b enabled
  else begin
    let p, other = if t.core.(a) < 0 then (a, b) else (b, a) in
    if t.hub.(p) <> other then
      invalid_arg "Routing.set_link_enabled: not adjacent";
    flip_pendant_link t p enabled
  end

let recomputes t = t.recomputes

(* [from]'s next hop toward [dst] (from <> dst), or -1. A core node reads
   its column entry. A pendant forwards to its neighbour while its link
   is up and the neighbour is at a finite distance from [dst]: the
   destination itself, or a node that reaches it. *)
let hop t ~from ~dst =
  ensure t dst;
  let c = t.core.(from) in
  if c >= 0 then t.next.(dst).(c)
  else
    let h = t.hub.(from) in
    if hub_is_up t from && t.dist.(dst).(t.core.(h)) < max_int then h else -1

let next_hop t ~from ~dst =
  check t from dst;
  if from = dst then invalid_arg "Routing.next_hop: from = dst";
  hop t ~from ~dst

let next_hop_opt t ~from ~dst =
  check t from dst;
  if from = dst then invalid_arg "Routing.next_hop_opt: from = dst";
  match hop t ~from ~dst with -1 -> None | n -> Some n

let reachable t ~from ~dst =
  check t from dst;
  from = dst || hop t ~from ~dst >= 0

let path t ~from ~dst =
  check t from dst;
  ensure t dst;
  let rec walk n acc =
    if n = dst then List.rev (dst :: acc)
    else
      match hop t ~from:n ~dst with
      | -1 -> invalid_arg "Routing.path: destination unreachable"
      | nh -> walk nh (n :: acc)
  in
  walk from []

(* A pendant is one link's delay beyond its neighbour, while that link
   is up. *)
let distance t ~from ~dst =
  check t from dst;
  ensure t dst;
  let c = t.core.(from) in
  if from = dst then 0
  else if c >= 0 then t.dist.(dst).(c)
  else
    let dh = t.dist.(dst).(t.core.(t.hub.(from))) in
    if hub_is_up t from && dh < max_int then t.hub_wt.(from) + dh else max_int
