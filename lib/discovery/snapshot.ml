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
  versions : int array;
}

(* A (parent, child) edge packed into one int, parent above child, so
   ascending keys are ascending (parent, child) pairs. Node ids are
   array indices, far below 2^31. *)
let key_bits = 31
let child_mask = (1 lsl key_bits) - 1
let key (e : edge) = (e.parent lsl key_bits) lor e.child

(* One layer's tree as read from the router: its packed keys, ascending
   because the router lists the edges by (parent, child). *)
let read_layer router group =
  let pairs = Multicast.Router.tree_edges router ~group in
  let a = Array.make (List.length pairs) 0 in
  List.iteri
    (fun i (parent, child) -> a.(i) <- (parent lsl key_bits) lor child)
    pairs;
  a

(* Each layer's sorted keys as recorded in [edges]: the inverse of
   [merge]. *)
let split_layers edges layer_count =
  let counts = Array.make layer_count 0 in
  List.iter
    (fun e -> List.iter (fun l -> counts.(l) <- counts.(l) + 1) e.layers)
    edges;
  let keys = Array.map (fun n -> Array.make n 0) counts in
  Array.fill counts 0 layer_count 0;
  List.iter
    (fun e ->
      let k = key e in
      List.iter
        (fun l ->
          keys.(l).(counts.(l)) <- k;
          counts.(l) <- counts.(l) + 1)
        e.layers)
    edges;
  keys

(* Overlay: union of the per-layer trees, tagging edges with layers.
   Merging the layers' sorted key arrays from the largest key down
   builds the (parent, child)-sorted edge list front-first, each edge's
   layers ascending. *)
let merge keys =
  let layer_count = Array.length keys in
  (* [left.(l)]: keys of layer [l] not merged yet; its largest is the
     last of them. *)
  let left = Array.map Array.length keys in
  let rec go acc =
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
      go
        ({ parent = key lsr key_bits; child = key land child_mask; layers = !layers }
        :: acc)
    end
  in
  go []

let read_members router session =
  let base_group = Traffic.Session.group_for_layer session ~layer:0 in
  Multicast.Router.members router ~group:base_group
  |> List.map (fun node ->
         (node, Traffic.Session.subscription_level session ~router ~node))

let capture ?prev ~router ~session ~at () =
  let layer_count = Traffic.Layering.count (Traffic.Session.layering session) in
  let groups =
    Array.init layer_count (fun layer ->
        Traffic.Session.group_for_layer session ~layer)
  in
  let versions =
    Array.map (fun group -> Multicast.Router.version router ~group) groups
  in
  let id = Traffic.Session.id session
  and source = Traffic.Session.source session in
  (* [prev] is reusable when it was read from this session's groups;
     a layer whose version did not move reads as it did then. *)
  match prev with
  | Some p
    when p.session = id && p.source = source
         && Array.length p.versions = layer_count ->
      if p.versions = versions then { p with taken_at = at }
      else begin
        let before = split_layers p.edges layer_count in
        let edges_moved = ref false in
        let keys =
          Array.mapi
            (fun l group ->
              if versions.(l) = p.versions.(l) then before.(l)
              else begin
                let now = read_layer router group in
                if now <> before.(l) then edges_moved := true;
                now
              end)
            groups
        in
        let edges = if !edges_moved then merge keys else p.edges in
        let members =
          let now = read_members router session in
          let same (n, l) (n', l') = Int.equal n n' && Int.equal l l' in
          if List.equal same now p.members then p.members else now
        in
        { session = id; taken_at = at; source; edges; members; versions }
      end
  | _ ->
      {
        session = id;
        taken_at = at;
        source;
        edges = merge (Array.map (read_layer router) groups);
        members = read_members router session;
        versions;
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
            {
              t with
              source = ingress;
              edges = edges_in.(s);
              members = members.(s);
              versions = [||];
            }
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
