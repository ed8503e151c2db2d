type node_id = int
type group_id = int

type dest =
  | Unicast of node_id
  | Multicast of group_id

let pp_node ppf n = Format.fprintf ppf "n%d" n
