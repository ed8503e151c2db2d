module Layering = Traffic.Layering

type session_ctx = {
  id : int;
  layering : Layering.t;
  tree : Tree.t;
}

(* One edge with a finite estimate, and the (session position, child
   index) of every session crossing it, newest session first. *)
type crossing = { cap : float; mutable by : (int * int) list }

let compute ~sessions ~capacity =
  let sessions = Array.of_list sessions in
  let base s = Layering.rate_bps sessions.(s).layering ~layer:0 in
  (* Which sessions cross each estimated edge. Edges without a finite
     estimate cap nothing, so they are not recorded. *)
  let crossing = Int_table.create 16 in
  Array.iteri
    (fun s ctx ->
      for i = 1 to Tree.size ctx.tree - 1 do
        let e = Tree.edge_into ctx.tree i in
        match Int_table.find crossing e with
        | c -> c.by <- (s, i) :: c.by
        | exception Not_found ->
            let cap = capacity ~edge:e in
            if Float.is_finite cap then
              Int_table.add crossing e { cap; by = [ (s, i) ] }
      done)
    sessions;
  (* Per session: the most bandwidth usable at each node if every other
     session took only its base layer (top-down min of headrooms), then
     the bottom-up max-possible-demand in whole layers. [xcap] starts as
     each node's inbound headroom. *)
  let per_node () =
    Array.map (fun ctx -> Array.make (Tree.size ctx.tree) infinity) sessions
  in
  let xcap = per_node () in
  Int_table.iter
    (fun _ c ->
      List.iter
        (fun (s, i) ->
          let id = sessions.(s).id in
          let reserved =
            List.fold_left
              (fun acc (o, _) ->
                if sessions.(o).id <> id then acc +. base o else acc)
              0.0 c.by
          in
          xcap.(s).(i) <- Float.max 0.0 (c.cap -. reserved))
        c.by)
    crossing;
  let xdem =
    Array.mapi
      (fun s ctx ->
        let tree = ctx.tree and xcap = xcap.(s) in
        let n = Tree.size tree in
        for i = 1 to n - 1 do
          xcap.(i) <- Float.min xcap.(Tree.parent tree i) xcap.(i)
        done;
        let xdem = Array.make n 0.0 in
        for i = n - 1 downto 0 do
          let count = Tree.child_count tree i in
          xdem.(i) <-
            (if count = 0 then
               let c = xcap.(i) in
               if not (Float.is_finite c) then infinity
               else
                 (* whole layers, floored at the base layer *)
                 let lvl =
                   max 1 (Layering.level_for_bandwidth ctx.layering ~bps:c)
                 in
                 Layering.cumulative_bps ctx.layering ~level:lvl
             else
               let first = Tree.first_child tree i in
               let d = ref 0.0 in
               for c = first to first + count - 1 do
                 d := Float.max !d xdem.(c)
               done;
               !d)
        done;
        xdem)
      sessions
  in
  (* Proportional split on every estimated edge. *)
  let caps = per_node () in
  Int_table.iter
    (fun _ { cap; by } ->
      (* An infinite x means the session saw no finite cap below; clamp
         to the link estimate so the rule stays finite. *)
      let x (s, i) =
        let x = xdem.(s).(i) in
        Float.max (base s) (if Float.is_finite x then x else cap)
      in
      match by with
      | [ (s, i) ] -> caps.(s).(i) <- cap
      | _ ->
          let total = List.fold_left (fun acc si -> acc +. x si) 0.0 by in
          List.iter
            (fun ((s, i) as si) ->
              caps.(s).(i) <- Float.max (base s) (x si *. cap /. total))
            by)
    crossing;
  Array.to_list caps
