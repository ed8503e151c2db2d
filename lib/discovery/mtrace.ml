module Router = Multicast.Router
module Session = Traffic.Session

type hop = {
  node : Net.Addr.node_id;
  layers : int list;
}

let trace ~router ~session ~receiver =
  let source = Session.source session in
  (* Parent map of the base-layer tree (the overlay's skeleton). *)
  let base = Session.group_for_layer session ~layer:0 in
  let parents = Hashtbl.create 32 in
  List.iter
    (fun (p, c) -> Hashtbl.replace parents c p)
    (Router.tree_edges router ~group:base);
  let layers_into node =
    let count = Traffic.Layering.count (Session.layering session) in
    List.filter
      (fun layer ->
        let group = Session.group_for_layer session ~layer in
        Router.on_tree router ~node ~group)
      (List.init count Fun.id)
  in
  if receiver <> source && not (Hashtbl.mem parents receiver) then
    Error
      (Printf.sprintf "receiver n%d is not on the tree of session %d" receiver
         (Session.id session))
  else begin
    let rec walk node acc =
      let acc = { node; layers = layers_into node } :: acc in
      if node = source then Ok (List.rev acc)
      else
        match Hashtbl.find_opt parents node with
        | Some p -> walk p acc
        | None ->
            Error (Printf.sprintf "tree is broken above n%d (no parent)" node)
    in
    walk receiver []
  end

let distance network ~from ~dst =
  if from = dst then 0
  else Net.Routing.distance (Net.Network.routing network) ~from ~dst

let trace_latency ~network ~querier ~path =
  match (path, List.rev path) with
  | [], _ | _, [] -> 0
  | first :: _, last :: _ ->
      (* first = receiver end, last = source end (trace returns
         receiver-first). *)
      let to_receiver = distance network ~from:querier ~dst:first.node in
      let up_tree =
        let rec sum = function
          | a :: (b :: _ as rest) ->
              distance network ~from:a.node ~dst:b.node + sum rest
          | [ _ ] | [] -> 0
        in
        sum path
      in
      let back = distance network ~from:last.node ~dst:querier in
      to_receiver + up_tree + back
