module Layering = Traffic.Layering

type session_ctx = {
  id : int;
  layering : Layering.t;
  tree : Tree.t;
  capacity : int -> float;
  caps : float array;
}

(* Session [s] crossing an estimated edge into its tree index [i]; [x]
   holds its headroom there, then its maximum possible demand. *)
type cross = { s : int; i : int; mutable x : float }

(* One edge with a finite estimate and every session crossing it,
   newest session first. *)
type crossing = { cap : float; mutable by : cross list }

let compute sessions =
  let sessions = Array.of_list sessions in
  let base s = Layering.rate_bps sessions.(s).layering ~layer:0 in
  (* Which sessions cross each estimated edge. Edges without a finite
     estimate cap nothing, so they are neither recorded nor hashed. *)
  let crossing = Int_table.create 16 in
  let crossed = Array.make (Array.length sessions) [] in
  Array.iteri
    (fun s ctx ->
      for i = 1 to Tree.size ctx.tree - 1 do
        let cap = ctx.capacity i in
        if Float.is_finite cap then begin
          let x = { s; i; x = 0.0 } in
          crossed.(s) <- x :: crossed.(s);
          let e = Tree.edge_into ctx.tree i in
          match Int_table.find crossing e with
          | c -> c.by <- x :: c.by
          | exception Not_found -> Int_table.add crossing e { cap; by = [ x ] }
        end
      done)
    sessions;
  (* Each crossing's headroom: the estimate less every other session's
     base layer. *)
  Int_table.iter
    (fun _ c ->
      List.iter
        (fun x ->
          let id = sessions.(x.s).id in
          let reserved =
            List.fold_left
              (fun acc o ->
                if sessions.(o.s).id <> id then acc +. base o.s else acc)
              0.0 c.by
          in
          x.x <- Float.max 0.0 (c.cap -. reserved))
        c.by)
    crossing;
  (* Per session: the most bandwidth usable at each node if every other
     session took only its base layer (top-down min of headrooms), then
     the bottom-up max-possible-demand in whole layers, worked in the
     session's [caps] array; only the crossings' values are kept. *)
  Array.iteri
    (fun s ctx ->
      let tree = ctx.tree and a = ctx.caps in
      let n = Tree.size tree in
      Array.fill a 0 n infinity;
      if crossed.(s) <> [] then begin
        List.iter (fun x -> a.(x.i) <- x.x) crossed.(s);
        for i = 1 to n - 1 do
          a.(i) <- Float.min a.(Tree.parent tree i) a.(i)
        done;
        (* In place: a node's children sit above it and are done. *)
        for i = n - 1 downto 0 do
          let count = Tree.child_count tree i in
          a.(i) <-
            (if count = 0 then
               let c = a.(i) in
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
                 d := Float.max !d a.(c)
               done;
               !d)
        done;
        List.iter (fun x -> x.x <- a.(x.i)) crossed.(s);
        Array.fill a 0 n infinity
      end)
    sessions;
  (* Proportional split on every estimated edge. *)
  Int_table.iter
    (fun _ { cap; by } ->
      (* An infinite x means the session saw no finite cap below; clamp
         to the link estimate so the rule stays finite. *)
      let x o =
        Float.max (base o.s) (if Float.is_finite o.x then o.x else cap)
      in
      match by with
      | [ o ] -> sessions.(o.s).caps.(o.i) <- cap
      | _ ->
          let total = List.fold_left (fun acc o -> acc +. x o) 0.0 by in
          List.iter
            (fun o ->
              sessions.(o.s).caps.(o.i) <-
                Float.max (base o.s) (x o *. cap /. total))
            by)
    crossing
