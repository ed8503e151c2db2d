module Time = Engine.Time

(* One session's working set, kept across intervals and indexed by its
   tree's numbering: the stage handles a fresh tree would look up node
   by node, and the stage arrays a fresh interval would allocate. All
   of it is built anew when the tree changes shape. *)
type view = {
  mutable tree : Tree.t;  (* the numbering everything is indexed by *)
  edges : Capacity.entry array;  (* [edges.(i - 1)]: the edge into [i] *)
  states : Subscription.node_state array;
  verdicts : Congestion.t;  (* stage 1: reports in, verdicts out *)
  levels : int array;
  caps : float array;  (* stage 4's output *)
  mutable step : int;  (* the step that last used the view *)
}

type t = {
  params : Params.t;
  capacity : Capacity.t;
  backoff : Backoff.t;
  subscription : Subscription.t;
  views : view Int_table.t;  (* by session *)
  mutable step : int;
  mutable seen : Bytes.t;  (* [by_index]'s scratch *)
}

let create ~params ~rng =
  let backoff = Backoff.create ~rng in
  {
    params;
    capacity = Capacity.create ~params;
    backoff;
    subscription = Subscription.create ~backoff;
    views = Int_table.create 8;
    step = 0;
    seen = Bytes.empty;
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
let by_index t tree entries set =
  let n = Tree.size tree in
  if Bytes.length t.seen < n then t.seen <- Bytes.create n;
  let seen = t.seen in
  Bytes.fill seen 0 n '\000';
  List.iter
    (fun (node, v) ->
      let i = Tree.index tree node in
      if i >= 0 && Bytes.get seen i = '\000' then begin
        Bytes.set seen i '\001';
        set i v
      end)
    entries

(* The session's view for this step: kept while the numbering stands,
   else built for the new tree. A second input for a session already
   seen this step gets a view of its own, not kept. *)
let view t (input : session_input) =
  let tree = input.tree in
  match Int_table.find_opt t.views input.id with
  | Some v when v.step < t.step && Tree.same_numbering v.tree tree ->
      v.tree <- tree;
      v.step <- t.step;
      v
  | prior ->
      let n = Tree.size tree in
      let v =
        {
          tree;
          edges =
            Array.init (n - 1) (fun k ->
                Capacity.entry t.capacity ~edge:(Tree.edge_into tree (k + 1)));
          states =
            Array.init n (fun i ->
                Subscription.node_state t.subscription ~session:input.id
                  ~node:(Tree.node tree i));
          verdicts = Congestion.create n;
          levels = Array.make n 0;
          caps = Array.make n 0.0;
          step = t.step;
        }
      in
      (match prior with
      | Some p when p.step = t.step -> ()
      | _ -> Int_table.replace t.views input.id v);
      v

let step t ~now inputs =
  t.step <- t.step + 1;
  let interval_s = Time.span_to_sec_f t.params.interval in
  (* Stage 1 per session, on arrays indexed by tree node. *)
  let staged =
    List.map
      (fun input ->
        let tree = input.tree in
        let n = Tree.size tree in
        let v = view t input in
        let verdicts = v.verdicts in
        Array.fill verdicts.loss 0 n 0.0;
        Array.fill verdicts.max_bytes 0 n 0;
        by_index t tree input.measures (fun i (l, b) ->
            verdicts.loss.(i) <- l;
            verdicts.max_bytes.(i) <- b);
        Array.fill v.levels 0 n 0;
        by_index t tree input.levels (fun i l -> v.levels.(i) <- l);
        Congestion.compute ~tree verdicts;
        (input, v))
      inputs
  in
  (* Stage 2: one observation per physical edge, all sessions pooled on
     the edge's entry (the newest session ends up first), then each
     entry observed once. *)
  List.iter
    (fun (input, v) ->
      let tree = input.tree and verdicts = v.verdicts in
      for i = 1 to Tree.size tree - 1 do
        Capacity.pool v.edges.(i - 1) ~session:input.id
          ~loss:verdicts.loss.(i) ~bytes:verdicts.max_bytes.(i)
          ~internal:(not (Tree.is_leaf tree i))
          ~self_congested:verdicts.self_congested.(i)
      done)
    staged;
  List.iter
    (fun (_, v) ->
      Array.iter
        (fun e -> Capacity.observe_pooled t.capacity e ~interval_s)
        v.edges)
    staged;
  (* Stage 3+4: fair caps per session per edge. *)
  Fair_share.compute
    (List.map
       (fun (input, v) ->
         {
           Fair_share.id = input.id;
           layering = input.layering;
           tree = input.tree;
           capacity = (fun i -> Capacity.estimate v.edges.(i - 1));
           caps = v.caps;
         })
       staged);
  (* Stage 5 per session. *)
  List.concat_map
    (fun (input, v) ->
      Subscription.step t.subscription ~now
        {
          Subscription.session = input.id;
          layering = input.layering;
          tree = input.tree;
          verdicts = v.verdicts;
          levels = v.levels;
          states = v.states;
          may_add = input.may_add;
          frozen = input.frozen;
          caps = v.caps;
          recipients = input.recipients;
        }
      |> List.map (fun (receiver, level) ->
             { session = input.id; receiver; level }))
    staged
  |> List.sort compare

let capacity_estimate t ~edge = Capacity.estimate_bps t.capacity ~edge
