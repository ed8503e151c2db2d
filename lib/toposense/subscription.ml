module Time = Engine.Time
module Layering = Traffic.Layering

(* A node's amounts apart from its flags: an all-float record is stored
   flat, so the per-interval updates allocate nothing. *)
type amounts = {
  mutable bytes_older : float;  (* bytes received in [T0,T1] *)
  mutable bytes_recent : float;  (* in [T1,T2] *)
  mutable supply_older : float;  (* supply granted for [T0,T1] *)
  mutable supply_recent : float;  (* granted for [T1,T2] *)
  mutable demand : float;  (* last computed demand *)
}

type node_state = {
  mutable hist_older : bool;  (* congestion state at T0 *)
  mutable hist_middle : bool;  (* at T1 *)
  mutable hist_current : bool;  (* at T2 = the state just computed *)
  mutable initialized : bool;
  amounts : amounts;
}

type t = {
  backoff : Backoff.t;
  states : node_state Int_table.t Int_table.t;  (* per session, by node id *)
  mutable flow : float array;
      (* one step's scratch, by tree index: demands bottom-up, then
         supplies top-down in place *)
  mutable settling : Bytes.t;  (* one step's scratch: subtree settling *)
}

let create ~backoff =
  {
    backoff;
    states = Int_table.create 8;
    flow = [||];
    settling = Bytes.empty;
  }

type input = {
  session : int;
  layering : Layering.t;
  tree : Tree.t;
  verdicts : Congestion.t;
  levels : int array;
  states : node_state array;
  may_add : Net.Addr.node_id -> bool;
  frozen : Net.Addr.node_id -> bool;
  caps : float array;
  recipients : Net.Addr.node_id list;
}

let session_states (t : t) session =
  match Int_table.find t.states session with
  | states -> states
  | exception Not_found ->
      let states = Int_table.create 64 in
      Int_table.add t.states session states;
      states

let node_state t ~session ~node =
  let states = session_states t session in
  match Int_table.find states node with
  | s -> s
  | exception Not_found ->
      let s =
        {
          hist_older = false;
          hist_middle = false;
          hist_current = false;
          initialized = false;
          amounts =
            {
              bytes_older = 0.0;
              bytes_recent = 0.0;
              supply_older = 0.0;
              supply_recent = 0.0;
              demand = 0.0;
            };
        }
      in
      Int_table.add states node s;
      s

let parent_congested input i =
  i > 0 && input.verdicts.congested.(Tree.parent input.tree i)

(* With doubling layers "half the supply" lands exactly one level down;
   with general schedules we still convert through whole levels. *)
let level_of_bw layering bps =
  if Float.is_finite bps then Layering.level_for_bandwidth layering ~bps
  else Layering.count layering

(* The supply granted for the named window, or [fallback] when none
   was. A function of its own, not a closure over [fallback]: stage 5
   would otherwise allocate one per node per interval. *)
let supply_of (a : amounts) ~fallback = function
  | Decision.Older -> if a.supply_older > 0.0 then a.supply_older else fallback
  | Decision.Recent ->
      if a.supply_recent > 0.0 then a.supply_recent else fallback

let leaf_demand t ~now input i (st : node_state) ~frozen =
  let layering = input.layering in
  let node = Tree.node input.tree i in
  let level = input.levels.(i) in
  let cur = Layering.cumulative_bps layering ~level in
  let loss = input.verdicts.loss.(i) in
  let base = Layering.rate_bps layering ~layer:0 in
  let a = st.amounts in
  let add_next () =
    if
      level < Layering.count layering
      && input.may_add node
      && not
           (Backoff.blocked_on_path t.backoff ~session:input.session
              ~tree:input.tree ~leaf:i ~layer:level ~now)
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
  if parent_congested input i || frozen then cur
  else begin
    let history =
      Decision.history_bits ~older:st.hist_older ~middle:st.hist_middle
        ~current:st.hist_current
    in
    let bw =
      Decision.classify_bw ~tolerance:Params.bw_equal_tolerance
        ~older:a.bytes_older ~recent:a.bytes_recent
    in
    match Decision.lookup ~kind:Decision.Leaf ~history ~bw with
    | Decision.Add_next_layer -> add_next ()
    | Decision.Drop_layer_if_high_loss ->
        if loss > Params.p_high then
          drop_one ~set_backoff:true
        else cur
    | Decision.Maintain_demand -> cur
    | Decision.Reduce_to_supply which ->
        Float.max base (Float.min cur (supply_of a ~fallback:cur which))
    | Decision.Reduce_to_half_supply { which; set_backoff } ->
        (* Halving is the drastic response; reserve it for genuinely high
           loss so the residue tail of an already-handled episode (just
           above p_threshold) cannot walk the subscription to the base
           layer. *)
        if loss <= Params.p_high then cur
        else begin
          let target =
            Float.max base (supply_of a ~fallback:cur which /. 2.0)
          in
          if set_backoff && target < cur then begin
            let new_level = level_of_bw layering target in
            let dropped_top = max new_level (level - 1) in
            Backoff.arm t.backoff ~session:input.session ~node
              ~layer:dropped_top ~now
          end;
          Float.min cur target
        end
    | Decision.Reduce_to_half_supply_if_very_high_loss which ->
        if loss > Params.p_very_high then
          Float.max base
            (Float.min cur (supply_of a ~fallback:cur which /. 2.0))
        else cur
    | Decision.Accept_children -> cur (* not produced for leaves *)
  end

let internal_demand t ~now input i (st : node_state) ~aggregate
    ~subtree_settling =
  let layering = input.layering in
  let base = Layering.rate_bps layering ~layer:0 in
  let a = st.amounts in
  (* While some descendant is still settling a drop, the subtree's loss
     evidence is contaminated by that adjustment (queue drain, leave
     latency, the sibling that has not yet received its suggestion);
     reducing again now is how one congestion event cascades into a crash
     to the base layer. Hold fire until the subtree is quiet. *)
  if parent_congested input i || subtree_settling then aggregate
  else begin
    let history =
      Decision.history_bits ~older:st.hist_older ~middle:st.hist_middle
        ~current:st.hist_current
    in
    let bw =
      Decision.classify_bw ~tolerance:Params.bw_equal_tolerance
        ~older:a.bytes_older ~recent:a.bytes_recent
    in
    match Decision.lookup ~kind:Decision.Internal ~history ~bw with
    | Decision.Accept_children -> aggregate
    | Decision.Maintain_demand ->
        if a.demand > 0.0 then Float.min aggregate a.demand else aggregate
    | Decision.Reduce_to_half_supply _
      when input.verdicts.loss.(i) <= Params.p_high ->
        (* Same high-loss gate as at the leaves. *)
        aggregate
    | Decision.Reduce_to_half_supply { which; set_backoff = _ } ->
        let target =
          Float.max base (supply_of a ~fallback:aggregate which /. 2.0)
        in
        let reduced = Float.min aggregate target in
        if reduced < aggregate then begin
          (* The root of the congested subtree drops: back off the highest
             layer being shed so the subtree does not re-add it at once. *)
          let old_level = level_of_bw layering aggregate in
          let new_level = level_of_bw layering reduced in
          if new_level < old_level then
            Backoff.arm t.backoff ~session:input.session
              ~node:(Tree.node input.tree i) ~layer:(old_level - 1) ~now
        end;
        reduced
    | Decision.Add_next_layer
    | Decision.Drop_layer_if_high_loss
    | Decision.Reduce_to_supply _
    | Decision.Reduce_to_half_supply_if_very_high_loss _ ->
        aggregate (* leaf-only actions; not produced for internals *)
  end

let step t ~now input =
  let tree = input.tree and verdicts = input.verdicts in
  let n = Tree.size tree in
  if Array.length t.flow < n then begin
    t.flow <- Array.make n 0.0;
    t.settling <- Bytes.make n '\000'
  end;
  (* 1. Advance histories with this interval's verdicts and bytes. *)
  let states = input.states in
  for i = 0 to n - 1 do
    let st = states.(i) in
    let congested = verdicts.congested.(i) in
    if not st.initialized then begin
      st.initialized <- true;
      st.hist_older <- congested;
      st.hist_middle <- congested
    end
    else begin
      st.hist_older <- st.hist_middle;
      st.hist_middle <- st.hist_current
    end;
    st.hist_current <- congested;
    let a = st.amounts in
    a.bytes_older <- a.bytes_recent;
    a.bytes_recent <- float_of_int verdicts.max_bytes.(i)
  done;
  (* 2. Demand, bottom-up (also fold up which subtrees are settling). *)
  let demands = t.flow and settling = t.settling in
  for i = n - 1 downto 0 do
    let st = states.(i) in
    let count = Tree.child_count tree i in
    let d =
      if count = 0 then begin
        let frozen = input.frozen (Tree.node tree i) in
        Bytes.set settling i (if frozen then '\001' else '\000');
        leaf_demand t ~now input i st ~frozen
      end
      else begin
        let first = Tree.first_child tree i in
        let aggregate = ref 0.0 and subtree_settling = ref false in
        for c = first to first + count - 1 do
          aggregate := Float.max !aggregate demands.(c);
          subtree_settling :=
            !subtree_settling || Bytes.get settling c <> '\000'
        done;
        Bytes.set settling i
          (if !subtree_settling then '\001' else '\000');
        internal_demand t ~now input i st ~aggregate:!aggregate
          ~subtree_settling:!subtree_settling
      end
    in
    st.amounts.demand <- d;
    demands.(i) <- d
  done;
  (* 3. Supply, top-down, over the demands: a parent's supply is in
     place before its children read it. *)
  let supplies = demands in
  for i = 0 to n - 1 do
    let s =
      if i = 0 then demands.(0)
      else
        Float.min demands.(i)
          (Float.min supplies.(Tree.parent tree i) input.caps.(i))
    in
    supplies.(i) <- s;
    let a = states.(i).amounts in
    a.supply_older <- a.supply_recent;
    a.supply_recent <- s
  done;
  (* 4. Prescriptions for the recipients that are member leaves: at most
     one new layer per interval, no layer under back-off on the path.
     Only reads state, so skipping the other members changes nothing. *)
  List.filter_map
    (fun node ->
      let i = Tree.index tree node in
      if i < 0 || not (Tree.is_member tree i && Tree.is_leaf tree i) then None
      else begin
        let level = input.levels.(i) in
        let affordable = level_of_bw input.layering supplies.(i) in
        let target =
          if affordable > level then
            if
              Backoff.blocked_on_path t.backoff ~session:input.session ~tree
                ~leaf:i ~layer:level ~now
            then level
            else level + 1
          else if affordable < level then max affordable (min level 1)
          else level
        in
        Some (node, target)
      end)
    input.recipients

