type node_id = int
type group_id = int

type dest =
  | Unicast of node_id
  | Multicast of group_id

let pp_node ppf n = Format.fprintf ppf "n%d" n
let pp_group ppf g = Format.fprintf ppf "g%d" g

let pp_dest ppf = function
  | Unicast n -> pp_node ppf n
  | Multicast g -> pp_group ppf g
