module Topology = Net.Topology
module Routing = Net.Routing

let path_edges routing ~from ~dst =
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | [ _ ] | [] -> []
  in
  pair (Routing.path routing ~from ~dst)

let same_edge (a, b) (c, d) = (a = c && b = d) || (a = d && b = c)

(* [sessions] are (source, receivers); edges are undirected here. *)
let sessions_crossing ~routing ~sessions edge =
  List.length
    (List.filter
       (fun (source, receivers) ->
         List.exists
           (fun r ->
             r <> source
             && List.exists (same_edge edge) (path_edges routing ~from:source ~dst:r))
           receivers)
       sessions)

let link_capacity topology edge =
  match
    List.find_opt
      (fun (l : Topology.link_spec) -> same_edge edge (l.a, l.b))
      (Topology.links topology)
  with
  | Some l -> l.bandwidth_bps
  | None -> invalid_arg "Static_oracle: edge not in topology"

let optimal_level ~topology ~routing ~layering ~sessions ~source ~receiver =
  if receiver = source then Traffic.Layering.count layering
  else begin
    let fair_bottleneck =
      List.fold_left
        (fun acc edge ->
          let k = max 1 (sessions_crossing ~routing ~sessions edge) in
          Float.min acc (link_capacity topology edge /. float_of_int k))
        infinity
        (path_edges routing ~from:source ~dst:receiver)
    in
    Traffic.Layering.level_for_bandwidth layering ~bps:fair_bottleneck
  end
