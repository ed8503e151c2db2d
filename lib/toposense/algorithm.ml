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

let params t = t.params

type session_input = {
  id : int;
  layering : Traffic.Layering.t;
  tree : Tree.t;
  measures : (Net.Addr.node_id * (float * int)) list;
  levels : (Net.Addr.node_id * int) list;
  may_add : Net.Addr.node_id -> bool;
  frozen : Net.Addr.node_id -> bool;
}

type prescription = {
  session : int;
  receiver : Net.Addr.node_id;
  level : int;
}

let step t ~now inputs =
  let interval_s = Time.span_to_sec_f t.params.interval in
  (* Stage 1 per session. *)
  let verdicts_of =
    List.map
      (fun input ->
        let measure node = List.assoc_opt node input.measures in
        (input, Congestion.compute ~params:t.params ~tree:input.tree ~measure))
      inputs
  in
  (* Stage 2: one observation per physical edge, all sessions pooled. *)
  let edge_sessions = Hashtbl.create 64 in
  let edge_internal = Hashtbl.create 64 in
  let edge_self_congested = Hashtbl.create 64 in
  List.iter
    (fun (input, verdicts) ->
      List.iter
        (fun (p, c) ->
          let verdict = Hashtbl.find verdicts c in
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt edge_sessions (p, c))
          in
          Hashtbl.replace edge_sessions (p, c)
            ((input.id, verdict.Congestion.loss, verdict.Congestion.max_bytes)
            :: cur);
          if not (Tree.is_leaf input.tree c) then
            Hashtbl.replace edge_internal (p, c) ();
          if verdict.Congestion.self_congested && not (Tree.is_leaf input.tree c)
          then Hashtbl.replace edge_self_congested (p, c) ())
        (Tree.edges input.tree))
    verdicts_of;
  Hashtbl.iter
    (fun edge sessions ->
      Capacity.observe t.capacity ~edge ~interval_s
        {
          Capacity.sessions;
          dest_internal = Hashtbl.mem edge_internal edge;
          dest_self_congested = Hashtbl.mem edge_self_congested edge;
        })
    edge_sessions;
  let capacity ~edge = Capacity.estimate_bps t.capacity ~edge in
  (* Stage 3+4: fair caps per session per edge. *)
  let fair =
    Fair_share.compute
      ~sessions:
        (List.map
           (fun (input, _) ->
             { Fair_share.id = input.id; layering = input.layering; tree = input.tree })
           verdicts_of)
      ~capacity
  in
  (* Stage 5 per session. *)
  List.concat_map
    (fun (input, verdicts) ->
      let level_of node =
        Option.value ~default:0 (List.assoc_opt node input.levels)
      in
      let edge_cap edge = Fair_share.cap_bps fair ~session:input.id ~edge in
      let prescriptions =
        Subscription.step t.subscription ~now
          {
            Subscription.session = input.id;
            layering = input.layering;
            tree = input.tree;
            verdicts;
            level_of;
            may_add = input.may_add;
            frozen = input.frozen;
            edge_cap;
          }
      in
      List.map
        (fun (receiver, level) -> { session = input.id; receiver; level })
        prescriptions)
    verdicts_of
  |> List.sort compare

let remove_session t ~session =
  Backoff.clear_session t.backoff ~session;
  Subscription.remove_session t.subscription ~session

let capacity_estimate t ~edge = Capacity.estimate_bps t.capacity ~edge
