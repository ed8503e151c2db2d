module Time = Engine.Time

type t = {
  params : Params.t;
  capacity : Capacity.t;
  backoff : Backoff.t;
  subscription : Subscription.t;
}

let create ~params ~rng =
  let backoff = Backoff.create ~params ~rng in
  {
    params;
    capacity = Capacity.create ~params;
    backoff;
    subscription = Subscription.create ~params ~backoff;
  }


type session_input = {
  id : int;
  layering : Traffic.Layering.t;
  tree : Tree.t;
  measures : (Net.Addr.node_id * (float * int)) list;
  levels : (Net.Addr.node_id * int) list;
  recipients : Net.Addr.node_id list;
  may_add : Net.Addr.node_id -> bool;
  frozen : Net.Addr.node_id -> bool;
}

type prescription = {
  session : int;
  receiver : Net.Addr.node_id;
  level : int;
}

(* [entries] by tree index, under [List.assoc_opt]'s rule: the first
   entry for a node wins. Nodes outside the tree are ignored. *)
let by_index tree entries set =
  let seen = Bytes.make (Tree.size tree) '\000' in
  List.iter
    (fun (node, v) ->
      let i = Tree.index tree node in
      if i >= 0 && Bytes.get seen i = '\000' then begin
        Bytes.set seen i '\001';
        set i v
      end)
    entries

(* Stage 2's pooled evidence for one physical edge. *)
type pooled = {
  mutable sessions : (int * float * int) list;  (* newest session first *)
  mutable dest_internal : bool;
  mutable dest_self_congested : bool;
}

let step t ~now inputs =
  let interval_s = Time.span_to_sec_f t.params.interval in
  (* Stage 1 per session, on arrays indexed by tree node. *)
  let staged =
    List.map
      (fun input ->
        let n = Tree.size input.tree in
        let loss = Array.make n 0.0 and bytes = Array.make n 0 in
        by_index input.tree input.measures (fun i (l, b) ->
            loss.(i) <- l;
            bytes.(i) <- b);
        let levels = Array.make n 0 in
        by_index input.tree input.levels (fun i l -> levels.(i) <- l);
        ( input,
          levels,
          Congestion.compute ~params:t.params ~tree:input.tree ~loss ~bytes ))
      inputs
  in
  (* Stage 2: one observation per physical edge, all sessions pooled. *)
  let pooled =
    Int_table.create
      (List.fold_left (fun acc input -> acc + Tree.size input.tree) 0 inputs)
  in
  List.iter
    (fun (input, _, (v : Congestion.t)) ->
      let tree = input.tree in
      for i = 1 to Tree.size tree - 1 do
        let edge = Tree.edge_into tree i in
        let p =
          match Int_table.find pooled edge with
          | p -> p
          | exception Not_found ->
              let p =
                {
                  sessions = [];
                  dest_internal = false;
                  dest_self_congested = false;
                }
              in
              Int_table.add pooled edge p;
              p
        in
        p.sessions <- (input.id, v.loss.(i), v.max_bytes.(i)) :: p.sessions;
        if not (Tree.is_leaf tree i) then begin
          p.dest_internal <- true;
          if v.self_congested.(i) then p.dest_self_congested <- true
        end
      done)
    staged;
  Int_table.iter
    (fun edge p ->
      Capacity.observe t.capacity ~edge ~interval_s
        {
          Capacity.sessions = p.sessions;
          dest_internal = p.dest_internal;
          dest_self_congested = p.dest_self_congested;
        })
    pooled;
  (* Stage 3+4: fair caps per session per edge. *)
  let caps =
    Fair_share.compute
      ~sessions:
        (List.map
           (fun (input, _, _) ->
             { Fair_share.id = input.id; layering = input.layering; tree = input.tree })
           staged)
      ~capacity:(fun ~edge -> Capacity.estimate_bps t.capacity ~edge)
  in
  (* Stage 5 per session. *)
  List.concat
    (List.map2
       (fun (input, levels, verdicts) caps ->
         Subscription.step t.subscription ~now
           {
             Subscription.session = input.id;
             layering = input.layering;
             tree = input.tree;
             verdicts;
             levels;
             may_add = input.may_add;
             frozen = input.frozen;
             caps;
             recipients = input.recipients;
           }
         |> List.map (fun (receiver, level) ->
                { session = input.id; receiver; level }))
       staged caps)
  |> List.sort compare

let capacity_estimate t ~edge = Capacity.estimate_bps t.capacity ~edge
