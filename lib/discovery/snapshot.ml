module Addr = Net.Addr

type edge = {
  parent : Addr.node_id;
  child : Addr.node_id;
  layers : int list;
}

type t = {
  session : int;
  taken_at : Engine.Time.t;
  source : Addr.node_id;
  edges : edge list;
  members : (Addr.node_id * int) list;
}

(* A (parent, child) edge packed into one int, parent above child, so
   ascending keys are ascending (parent, child) pairs. Node ids are
   array indices, far below 2^31. *)
let key_bits = 31
let child_mask = (1 lsl key_bits) - 1

let capture ~router ~session ~at =
  let layering = Traffic.Session.layering session in
  let layer_count = Traffic.Layering.count layering in
  (* Overlay: union of the per-layer trees, tagging edges with layers.
     Each layer's edges become a sorted array of packed keys; merging the
     arrays from the largest key down builds the (parent, child)-sorted
     edge list front-first, each edge's layers ascending. *)
  let keys =
    Array.init layer_count (fun layer ->
        let group = Traffic.Session.group_for_layer session ~layer in
        let pairs = Multicast.Router.tree_edges router ~group in
        let a = Array.make (List.length pairs) 0 in
        List.iteri
          (fun i (parent, child) -> a.(i) <- (parent lsl key_bits) lor child)
          pairs;
        Array.stable_sort Int.compare a;
        a)
  in
  (* [left.(l)]: keys of layer [l] not merged yet; its largest is the
     last of them. *)
  let left = Array.map Array.length keys in
  let rec merge acc =
    let top = ref (-1) in
    for l = 0 to layer_count - 1 do
      let n = left.(l) in
      if n > 0 && keys.(l).(n - 1) > !top then top := keys.(l).(n - 1)
    done;
    let key = !top in
    if key < 0 then acc
    else begin
      let layers = ref [] in
      for l = layer_count - 1 downto 0 do
        while left.(l) > 0 && keys.(l).(left.(l) - 1) = key do
          layers := l :: !layers;
          left.(l) <- left.(l) - 1
        done
      done;
      merge
        ({ parent = key lsr key_bits; child = key land child_mask; layers = !layers }
        :: acc)
    end
  in
  let edges = merge [] in
  let base_group = Traffic.Session.group_for_layer session ~layer:0 in
  let members =
    Multicast.Router.members router ~group:base_group
    |> List.map (fun node ->
           (node, Traffic.Session.subscription_level session ~router ~node))
  in
  {
    session = Traffic.Session.id session;
    taken_at = at;
    source = Traffic.Session.source session;
    edges;
    members;
  }

let is_tree t =
  (* each child has exactly one parent *)
  let childs = List.map (fun e -> e.child) t.edges in
  let unique = List.sort_uniq Int.compare childs in
  List.length unique = List.length childs
  && (not (List.exists (fun e -> e.child = t.source) t.edges))
  &&
  (* all edges reachable from the source; pre-index children so the walk
     is O(edges), not O(nodes * edges) *)
  let kids : (Addr.node_id, Addr.node_id list) Hashtbl.t =
    Hashtbl.create (List.length t.edges + 1)
  in
  List.iter
    (fun e ->
      Hashtbl.replace kids e.parent
        (e.child :: Option.value ~default:[] (Hashtbl.find_opt kids e.parent)))
    t.edges;
  let seen : (Addr.node_id, unit) Hashtbl.t =
    Hashtbl.create (List.length t.edges + 1)
  in
  Hashtbl.replace seen t.source ();
  let rec reach = function
    | [] -> ()
    | n :: rest ->
        let cs = Option.value ~default:[] (Hashtbl.find_opt kids n) in
        let fresh = List.filter (fun c -> not (Hashtbl.mem seen c)) cs in
        List.iter (fun c -> Hashtbl.replace seen c ()) fresh;
        reach (List.rev_append fresh rest)
  in
  reach [ t.source ];
  List.for_all (fun e -> Hashtbl.mem seen e.parent) t.edges

type part =
  | Outside
  | Inside of t
  | Multi_ingress of { session : int; ingresses : Addr.node_id list }

let partition t ~slots ~slot_of =
  let edges_in = Array.make slots [] in
  let entered = Array.make slots [] in
  let members = Array.make slots [] in
  (* Walk back to front so every slot's lists come out in snapshot
     order: edges by (parent, child), members by node. *)
  List.iter
    (fun e ->
      let s = slot_of e.child in
      if s >= 0 then
        if slot_of e.parent = s then edges_in.(s) <- e :: edges_in.(s)
        else entered.(s) <- e.child :: entered.(s))
    (List.rev t.edges);
  List.iter
    (fun ((m, _) as member) ->
      let s = slot_of m in
      if s >= 0 then members.(s) <- member :: members.(s))
    (List.rev t.members);
  let source_slot = slot_of t.source in
  Array.init slots (fun s ->
      (* Ingresses: domain nodes entered from outside, plus the source. *)
      let ingresses =
        (if s = source_slot then [ t.source ] else []) @ entered.(s)
        |> List.sort_uniq Int.compare
      in
      match ingresses with
      | [] -> Outside
      | [ ingress ] ->
          Inside
            { t with source = ingress; edges = edges_in.(s); members = members.(s) }
      | _ :: _ :: _ -> Multi_ingress { session = t.session; ingresses })

let part_view = function
  | Outside -> None
  | Inside v -> Some v
  | Multi_ingress { session; ingresses } ->
      invalid_arg
        (Format.asprintf
           "Snapshot.restrict: session %d enters the domain at %d ingresses \
            (%a); domains handed to a controller must be subtree-shaped — \
            regroup the nodes so the tree crosses the boundary once (see \
            Scenarios.Builders.validate_domains)"
           session (List.length ingresses)
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
              Addr.pp_node)
           ingresses)

let restrict t ~domain =
  let dom : (Addr.node_id, unit) Hashtbl.t =
    Hashtbl.create (List.length domain)
  in
  List.iter (fun n -> Hashtbl.replace dom n ()) domain;
  let slot_of n = if Hashtbl.mem dom n then 0 else -1 in
  part_view (partition t ~slots:1 ~slot_of).(0)
