module Time = Engine.Time

type t = {
  params : Params.t;
  rng : Engine.Prng.t;
  deadlines : (int * Net.Addr.node_id * int, Time.t) Hashtbl.t;
}

let create ~params ~rng = { params; rng; deadlines = Hashtbl.create 64 }

let arm t ~session ~node ~layer ~now =
  let span =
    Engine.Prng.int t.rng
      ~bound:(t.params.backoff_max - t.params.backoff_min + 1)
    + t.params.backoff_min
  in
  Hashtbl.replace t.deadlines (session, node, layer) (Time.add now span)

let active t ~session ~node ~layer ~now =
  match Hashtbl.find_opt t.deadlines (session, node, layer) with
  | None -> false
  | Some deadline -> Time.(now < deadline)

let blocked_on_path t ~session ~tree ~leaf ~layer ~now =
  let rec up i =
    i >= 0
    && (active t ~session ~node:(Tree.node tree i) ~layer ~now
       || up (Tree.parent tree i))
  in
  up leaf

let clear t = Hashtbl.reset t.deadlines

let clear_session t ~session =
  Hashtbl.filter_map_inplace
    (fun (s, _, _) deadline -> if s = session then None else Some deadline)
    t.deadlines
