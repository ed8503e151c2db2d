module Time = Engine.Time
module Layering = Traffic.Layering

type node_state = {
  mutable hist_older : bool;  (* congestion state at T0 *)
  mutable hist_middle : bool;  (* at T1 *)
  mutable hist_current : bool;  (* at T2 = the state just computed *)
  mutable bytes_older : float;  (* bytes received in [T0,T1] *)
  mutable bytes_recent : float;  (* in [T1,T2] *)
  mutable supply_older : float;  (* supply granted for [T0,T1] *)
  mutable supply_recent : float;  (* granted for [T1,T2] *)
  mutable demand : float;  (* last computed demand *)
  mutable initialized : bool;
}

type t = {
  params : Params.t;
  backoff : Backoff.t;
  states : (int * Net.Addr.node_id, node_state) Hashtbl.t;
}

let create ~params ~backoff = { params; backoff; states = Hashtbl.create 64 }

type input = {
  session : int;
  layering : Layering.t;
  tree : Tree.t;
  verdicts : (Net.Addr.node_id, Congestion.verdict) Hashtbl.t;
  level_of : Net.Addr.node_id -> int;
  may_add : Net.Addr.node_id -> bool;
  frozen : Net.Addr.node_id -> bool;
  edge_cap : Net.Addr.node_id * Net.Addr.node_id -> float;
}

let state t ~session ~node =
  match Hashtbl.find_opt t.states (session, node) with
  | Some s -> s
  | None ->
      let s =
        {
          hist_older = false;
          hist_middle = false;
          hist_current = false;
          bytes_older = 0.0;
          bytes_recent = 0.0;
          supply_older = 0.0;
          supply_recent = 0.0;
          demand = 0.0;
          initialized = false;
        }
      in
      Hashtbl.add t.states (session, node) s;
      s

let parent_congested input node =
  match Tree.parent input.tree node with
  | None -> false
  | Some p -> (Hashtbl.find input.verdicts p).Congestion.congested

(* With doubling layers "half the supply" lands exactly one level down;
   with general schedules we still convert through whole levels. *)
let level_of_bw layering bps =
  if Float.is_finite bps then Layering.level_for_bandwidth layering ~bps
  else Layering.count layering

let leaf_demand t ~now input node (st : node_state) =
  let layering = input.layering in
  let level = input.level_of node in
  let cur = Layering.cumulative_bps layering ~level in
  let verdict = Hashtbl.find input.verdicts node in
  let base = Layering.rate_bps layering ~layer:0 in
  let supply_of = function
    | Decision.Older -> if st.supply_older > 0.0 then st.supply_older else cur
    | Decision.Recent -> if st.supply_recent > 0.0 then st.supply_recent else cur
  in
  let add_next () =
    if
      level < Layering.count layering
      && input.may_add node
      && not
           (Backoff.blocked_on_path t.backoff ~session:input.session
              ~tree:input.tree ~leaf:node ~layer:level ~now)
    then Layering.cumulative_bps layering ~level:(level + 1)
    else cur
  in
  let drop_one ~set_backoff =
    if level > 1 then begin
      if set_backoff then
        Backoff.arm t.backoff ~session:input.session ~node ~layer:(level - 1)
          ~now;
      Layering.cumulative_bps layering ~level:(level - 1)
    end
    else cur
  in
  if parent_congested input node || input.frozen node then cur
  else begin
    let history =
      Decision.history_bits ~older:st.hist_older ~middle:st.hist_middle
        ~current:st.hist_current
    in
    let bw =
      Decision.classify_bw ~tolerance:t.params.bw_equal_tolerance
        ~older:st.bytes_older ~recent:st.bytes_recent
    in
    match Decision.lookup ~kind:Decision.Leaf ~history ~bw with
    | Decision.Add_next_layer -> add_next ()
    | Decision.Drop_layer_if_high_loss ->
        if verdict.Congestion.loss > t.params.p_high then
          drop_one ~set_backoff:true
        else cur
    | Decision.Maintain_demand -> cur
    | Decision.Reduce_to_supply which -> Float.max base (Float.min cur (supply_of which))
    | Decision.Reduce_to_half_supply { which; set_backoff } ->
        (* Halving is the drastic response; reserve it for genuinely high
           loss so the residue tail of an already-handled episode (just
           above p_threshold) cannot walk the subscription to the base
           layer. *)
        if verdict.Congestion.loss <= t.params.p_high then cur
        else begin
          let target = Float.max base (supply_of which /. 2.0) in
          if set_backoff && target < cur then begin
            let new_level = level_of_bw layering target in
            let dropped_top = max new_level (level - 1) in
            Backoff.arm t.backoff ~session:input.session ~node
              ~layer:dropped_top ~now
          end;
          Float.min cur target
        end
    | Decision.Reduce_to_half_supply_if_very_high_loss which ->
        if verdict.Congestion.loss > t.params.p_very_high then
          Float.max base (Float.min cur (supply_of which /. 2.0))
        else cur
    | Decision.Accept_children -> cur (* not produced for leaves *)
  end

let internal_demand t ~now input node (st : node_state) ~aggregate
    ~subtree_settling =
  let layering = input.layering in
  let base = Layering.rate_bps layering ~layer:0 in
  let supply_of = function
    | Decision.Older ->
        if st.supply_older > 0.0 then st.supply_older else aggregate
    | Decision.Recent ->
        if st.supply_recent > 0.0 then st.supply_recent else aggregate
  in
  (* While some descendant is still settling a drop, the subtree's loss
     evidence is contaminated by that adjustment (queue drain, leave
     latency, the sibling that has not yet received its suggestion);
     reducing again now is how one congestion event cascades into a crash
     to the base layer. Hold fire until the subtree is quiet. *)
  if parent_congested input node || subtree_settling then aggregate
  else begin
    let history =
      Decision.history_bits ~older:st.hist_older ~middle:st.hist_middle
        ~current:st.hist_current
    in
    let bw =
      Decision.classify_bw ~tolerance:t.params.bw_equal_tolerance
        ~older:st.bytes_older ~recent:st.bytes_recent
    in
    match Decision.lookup ~kind:Decision.Internal ~history ~bw with
    | Decision.Accept_children -> aggregate
    | Decision.Maintain_demand ->
        if st.demand > 0.0 then Float.min aggregate st.demand else aggregate
    | Decision.Reduce_to_half_supply _
      when (Hashtbl.find input.verdicts node).Congestion.loss
           <= t.params.p_high ->
        (* Same high-loss gate as at the leaves. *)
        aggregate
    | Decision.Reduce_to_half_supply { which; set_backoff = _ } ->
        let target = Float.max base (supply_of which /. 2.0) in
        let reduced = Float.min aggregate target in
        if reduced < aggregate then begin
          (* The root of the congested subtree drops: back off the highest
             layer being shed so the subtree does not re-add it at once. *)
          let old_level = level_of_bw layering aggregate in
          let new_level = level_of_bw layering reduced in
          if new_level < old_level then
            Backoff.arm t.backoff ~session:input.session ~node
              ~layer:(old_level - 1) ~now
        end;
        reduced
    | Decision.Add_next_layer
    | Decision.Drop_layer_if_high_loss
    | Decision.Reduce_to_supply _
    | Decision.Reduce_to_half_supply_if_very_high_loss _ ->
        aggregate (* leaf-only actions; not produced for internals *)
  end

let step t ~now input =
  let tree = input.tree in
  (* 1. Advance histories with this interval's verdicts and bytes. *)
  List.iter
    (fun node ->
      let st = state t ~session:input.session ~node in
      let verdict = Hashtbl.find input.verdicts node in
      if not st.initialized then begin
        st.initialized <- true;
        st.hist_older <- verdict.Congestion.congested;
        st.hist_middle <- verdict.Congestion.congested
      end
      else begin
        st.hist_older <- st.hist_middle;
        st.hist_middle <- st.hist_current
      end;
      st.hist_current <- verdict.Congestion.congested;
      st.bytes_older <- st.bytes_recent;
      st.bytes_recent <- float_of_int verdict.Congestion.max_bytes)
    (Tree.top_down tree);
  (* 2. Demand, bottom-up (also fold up which subtrees are settling). *)
  let demands = Hashtbl.create 32 in
  let settling = Hashtbl.create 32 in
  List.iter
    (fun node ->
      let st = state t ~session:input.session ~node in
      let d =
        match Tree.children tree node with
        | [] ->
            Hashtbl.replace settling node (input.frozen node);
            leaf_demand t ~now input node st
        | children ->
            let aggregate =
              List.fold_left
                (fun acc c -> Float.max acc (Hashtbl.find demands c))
                0.0 children
            in
            let subtree_settling =
              List.exists (fun c -> Hashtbl.find settling c) children
            in
            Hashtbl.replace settling node subtree_settling;
            internal_demand t ~now input node st ~aggregate ~subtree_settling
      in
      st.demand <- d;
      Hashtbl.replace demands node d)
    (Tree.bottom_up tree);
  (* 3. Supply, top-down. *)
  let supplies = Hashtbl.create 32 in
  List.iter
    (fun node ->
      let s =
        match Tree.parent tree node with
        | None -> Hashtbl.find demands node
        | Some p ->
            Float.min
              (Hashtbl.find demands node)
              (Float.min (Hashtbl.find supplies p) (input.edge_cap (p, node)))
      in
      Hashtbl.replace supplies node s;
      let st = state t ~session:input.session ~node in
      st.supply_older <- st.supply_recent;
      st.supply_recent <- s)
    (Tree.top_down tree);
  (* 4. Prescriptions for member leaves: at most one new layer per
     interval, no layer under back-off on the path. *)
  List.filter_map
    (fun (node, _snapshot_level) ->
      if not (Tree.is_leaf tree node) then None
      else begin
        let level = input.level_of node in
        let supply = Hashtbl.find supplies node in
        let affordable = level_of_bw input.layering supply in
        let target =
          if affordable > level then
            if
              Backoff.blocked_on_path t.backoff ~session:input.session ~tree
                ~leaf:node ~layer:level ~now
            then level
            else level + 1
          else if affordable < level then max affordable (min level 1)
          else level
        in
        Some (node, target)
      end)
    (List.sort compare (Tree.members tree))

let remove_session t ~session =
  Hashtbl.filter_map_inplace
    (fun (s, _) st -> if s = session then None else Some st)
    t.states
