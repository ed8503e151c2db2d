module Addr = Net.Addr

type t = {
  node : Addr.node_id array;
  parent : int array;
  first_child : int array;
  child_count : int array;
  member : Bytes.t;  (* '\001' at a member's index *)
  members : (Addr.node_id * int) list;
  index : int Int_table.t;
  edges : Discovery.Snapshot.edge list;  (* the snapshot's, as built from *)
  snap_members : (Addr.node_id * int) list;  (* likewise *)
}

let edge ~parent ~child = (parent lsl 31) lor child

(* The member flags and list of [snap]'s members, on a numbering. *)
let mark_members index n (snap : Discovery.Snapshot.t) =
  let member = Bytes.make n '\000' in
  let members =
    List.filter
      (fun (m, _) ->
        match Int_table.find index m with
        | i ->
            Bytes.set member i '\001';
            true
        | exception Not_found -> false)
      snap.members
  in
  (member, members)

exception Not_a_tree

let build (snap : Discovery.Snapshot.t) =
  let m = List.length snap.edges in
  (* A tree has exactly one more node than it has edges. *)
  let n = m + 1 in
  (* Provisional numbers, in order of first appearance with the source
     at 0; [index] is rewritten to BFS indices once the walk succeeds. A
     node past the [n]th proves the snapshot is not a tree. *)
  let index = Int_table.create n in
  let ids = Array.make n snap.source in
  Int_table.add index snap.source 0;
  let numbered = ref 1 in
  let number node =
    match Int_table.find index node with
    | k -> k
    | exception Not_found ->
        let k = !numbered in
        if k = n then raise Not_a_tree;
        Int_table.add index node k;
        ids.(k) <- node;
        numbered := k + 1;
        k
  in
  let par = Array.make n (-1) in
  let kids = Array.make n 0 in
  let child_of = Array.make m 0 in
  match
    List.iteri
      (fun e (edge : Discovery.Snapshot.edge) ->
        let p = number edge.parent in
        let c = number edge.child in
        (* An edge into the source, or a second parent. *)
        if c = 0 || par.(c) >= 0 then raise Not_a_tree;
        par.(c) <- p;
        kids.(p) <- kids.(p) + 1;
        child_of.(e) <- c)
      snap.edges
  with
  | exception Not_a_tree -> None
  | () ->
      (* Each node's children, in snapshot edge order, as one slice of
         [slots] starting at [start.(p)]: end offsets first, then a
         back-to-front fill that leaves each offset at its slice's
         start. *)
      let start = Array.make n 0 in
      let total = ref 0 in
      for p = 0 to n - 1 do
        total := !total + kids.(p);
        start.(p) <- !total
      done;
      let slots = Array.make m 0 in
      for e = m - 1 downto 0 do
        let p = par.(child_of.(e)) in
        start.(p) <- start.(p) - 1;
        slots.(start.(p)) <- child_of.(e)
      done;
      (* BFS from the source. With one parent per node and none for the
         source, no node is queued twice, so the walk ends; it reaches
         all [n] nodes exactly when every edge hangs below the source. *)
      let order = Array.make n 0 in
      let node = Array.make n snap.source in
      let parent = Array.make n (-1) in
      let first_child = Array.make n 0 in
      let child_count = Array.make n 0 in
      let tail = ref 1 in
      let head = ref 0 in
      while !head < !tail do
        let h = !head in
        let u = order.(h) in
        first_child.(h) <- !tail;
        child_count.(h) <- kids.(u);
        for s = start.(u) to start.(u) + kids.(u) - 1 do
          let c = slots.(s) in
          order.(!tail) <- c;
          node.(!tail) <- ids.(c);
          parent.(!tail) <- h;
          incr tail
        done;
        incr head
      done;
      if !tail < n then None
      else begin
        Array.iteri (fun i id -> Int_table.replace index id i) node;
        let member, members = mark_members index n snap in
        Some
          {
            node;
            parent;
            first_child;
            child_count;
            member;
            members;
            index;
            edges = snap.edges;
            snap_members = snap.members;
          }
      end

(* Whether two edge lists name the same (parent, child) sequence. *)
let rec same_pairs (a : Discovery.Snapshot.edge list)
    (b : Discovery.Snapshot.edge list) =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> x.parent = y.parent && x.child = y.child && same_pairs a b
  | _ -> false

let of_snapshot ?prev (snap : Discovery.Snapshot.t) =
  match prev with
  | Some p when p.node.(0) = snap.source && same_pairs p.edges snap.edges ->
      (* Same shape: the numbering stands; only membership can differ. *)
      if p.snap_members == snap.members then
        Some
          (if p.edges == snap.edges then p else { p with edges = snap.edges })
      else
        let member, members = mark_members p.index (Array.length p.node) snap in
        Some
          {
            p with
            member;
            members;
            edges = snap.edges;
            snap_members = snap.members;
          }
  | _ -> build snap

let size t = Array.length t.node
let node t i = t.node.(i)

let index t n =
  match Int_table.find t.index n with i -> i | exception Not_found -> -1

let parent t i = t.parent.(i)
let first_child t i = t.first_child.(i)
let child_count t i = t.child_count.(i)
let is_leaf t i = t.child_count.(i) = 0
let is_member t i = Bytes.get t.member i <> '\000'
let members t = t.members
let edge_into t i = edge ~parent:t.node.(t.parent.(i)) ~child:t.node.(i)
let same_numbering a b = a.node == b.node
