type t = {
  congested : bool array;
  loss : float array;
  max_bytes : int array;
  self_congested : bool array;
}

let create n =
  {
    congested = Array.make n false;
    loss = Array.make n 0.0;
    max_bytes = Array.make n 0;
    self_congested = Array.make n false;
  }

let compute ~tree { congested; loss; max_bytes; self_congested } =
  let n = Tree.size tree in
  (* Bottom-up: losses, subtree byte maxima and self-evidence. A leaf's
     own entries are its report; a parent's are overwritten only after
     all its children's, which sit at higher indices. *)
  for i = n - 1 downto 0 do
    let first = Tree.first_child tree i and count = Tree.child_count tree i in
    if count = 0 then self_congested.(i) <- loss.(i) > Params.p_threshold
    else begin
      let last = first + count - 1 in
      let l = ref infinity and b = ref 0 in
      for c = first to last do
        l := Float.min !l loss.(c);
        b := Int.max !b max_bytes.(c)
      done;
      loss.(i) <- !l;
      max_bytes.(i) <- !b;
      (* A single-child node adds no evidence of its own: its child's
         loss could originate anywhere below, and claiming it here would
         walk congestion up every chain to the source, where "action at
         the root of the congested subtree" would halve the whole
         session. Only sibling-correlated loss localizes a bottleneck to
         this node's inbound link. *)
      if count = 1 then self_congested.(i) <- false
      else begin
        let k = float_of_int count in
        let all_above = ref true and sum = ref 0.0 in
        for c = first to last do
          if not (loss.(c) > Params.p_threshold) then all_above := false;
          sum := !sum +. loss.(c)
        done;
        let mean = !sum /. k in
        let similar = ref 0 in
        for c = first to last do
          if Float.abs (loss.(c) -. mean) <= Params.similar_band *. mean then
            incr similar
        done;
        self_congested.(i) <-
          !all_above && float_of_int !similar /. k >= Params.eta_similar
      end
    end
  done;
  (* Top-down: a node is congested if it is self-congested or its parent
     ended up congested. *)
  for i = 0 to n - 1 do
    congested.(i) <-
      self_congested.(i) || (i > 0 && congested.(Tree.parent tree i))
  done
