module Layering = Traffic.Layering

type session_ctx = {
  id : int;
  layering : Layering.t;
  tree : Tree.t;
}

type edge = Net.Addr.node_id * Net.Addr.node_id

(* (session, edge) -> allowed bandwidth across that edge *)
type t = (int * edge, float) Hashtbl.t

let compute ~sessions ~capacity =
  (* Which sessions cross each physical edge. *)
  let crossing : (edge, session_ctx list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ctx ->
      List.iter
        (fun e ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt crossing e) in
          Hashtbl.replace crossing e (ctx :: cur))
        (Tree.edges ctx.tree))
    sessions;
  let base ctx = Layering.rate_bps ctx.layering ~layer:0 in
  (* Per session: max bandwidth usable at each node if all other sessions
     took only their base layer (top-down min of headrooms), then the
     bottom-up max-possible-demand in whole layers. *)
  let xdem_at : (int * Net.Addr.node_id, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ctx ->
      let headroom e =
        let cap = capacity ~edge:e in
        if not (Float.is_finite cap) then infinity
        else
          let others =
            Option.value ~default:[] (Hashtbl.find_opt crossing e)
            |> List.filter (fun c -> c.id <> ctx.id)
          in
          let reserved = List.fold_left (fun acc c -> acc +. base c) 0.0 others in
          Float.max 0.0 (cap -. reserved)
      in
      let xcap = Hashtbl.create 32 in
      List.iter
        (fun node ->
          let v =
            match Tree.parent ctx.tree node with
            | None -> infinity
            | Some p -> Float.min (Hashtbl.find xcap p) (headroom (p, node))
          in
          Hashtbl.replace xcap node v)
        (Tree.top_down ctx.tree);
      List.iter
        (fun node ->
          let v =
            match Tree.children ctx.tree node with
            | [] ->
                let c = Hashtbl.find xcap node in
                if not (Float.is_finite c) then infinity
                else
                  (* whole layers, floored at the base layer *)
                  let lvl = max 1 (Layering.level_for_bandwidth ctx.layering ~bps:c) in
                  Layering.cumulative_bps ctx.layering ~level:lvl
            | children ->
                List.fold_left
                  (fun acc ch -> Float.max acc (Hashtbl.find xdem_at (ctx.id, ch)))
                  0.0 children
          in
          Hashtbl.replace xdem_at (ctx.id, node) v)
        (Tree.bottom_up ctx.tree))
    sessions;
  (* Proportional split on every estimated edge. *)
  let caps = Hashtbl.create 64 in
  Hashtbl.iter
    (fun e ctxs ->
      let cap = capacity ~edge:e in
      if Float.is_finite cap then begin
        let child = snd e in
        let xs =
          List.map
            (fun ctx ->
              let x = Hashtbl.find xdem_at (ctx.id, child) in
              (* An infinite x means the session saw no finite cap below;
                 clamp to the link estimate so the rule stays finite. *)
              let x = if Float.is_finite x then x else cap in
              (ctx, Float.max (base ctx) x))
            ctxs
        in
        let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 xs in
        List.iter
          (fun (ctx, x) ->
            let share =
              match ctxs with
              | [ _ ] -> cap
              | _ -> Float.max (base ctx) (x *. cap /. total)
            in
            Hashtbl.replace caps (ctx.id, e) share)
          xs
      end)
    crossing;
  caps

let cap_bps t ~session ~edge =
  Option.value ~default:infinity (Hashtbl.find_opt t (session, edge))
