module Addr = Net.Addr

type t = {
  id : int;
  source : Addr.node_id;
  layering : Layering.t;
  groups : Addr.group_id array;
}

let create ~router ~source ~layering ~id =
  let groups =
    Array.init (Layering.count layering) (fun _ ->
        Multicast.Router.fresh_group router ~source)
  in
  { id; source; layering; groups }

let id t = t.id
let source t = t.source
let layering t = t.layering

let group_for_layer t ~layer =
  if layer < 0 || layer >= Array.length t.groups then
    invalid_arg "Session.group_for_layer: layer";
  t.groups.(layer)

let subscription_level t ~router ~node =
  let rec loop k =
    if k >= Array.length t.groups then k
    else if Multicast.Router.is_member router ~node ~group:t.groups.(k) then loop (k + 1)
    else k
  in
  loop 0

let set_subscription_level t ~router ~node ~level =
  if level < 0 || level > Array.length t.groups then
    invalid_arg "Session.set_subscription_level: level";
  let current = subscription_level t ~router ~node in
  if level > current then
    for k = current to level - 1 do
      Multicast.Router.join router ~node ~group:t.groups.(k)
    done
  else
    for k = current - 1 downto level do
      Multicast.Router.leave router ~node ~group:t.groups.(k)
    done
