module Time = Engine.Time

type link_spec = {
  a : Addr.node_id;
  b : Addr.node_id;
  bandwidth_bps : float;
  delay : Time.span;
  discipline : Queue_discipline.spec;
}

type t = {
  mutable node_count : int;
  mutable links_rev : link_spec list;
  pairs : (Addr.node_id * Addr.node_id, unit) Hashtbl.t;
      (* normalized (min, max) endpoint pairs: the duplicate check must
         stay O(1) per link or building a 1M-receiver world is O(L^2) *)
}

let create () = { node_count = 0; links_rev = []; pairs = Hashtbl.create 64 }

let add_node t =
  let id = t.node_count in
  t.node_count <- t.node_count + 1;
  id

let add_nodes t k = List.init k (fun _ -> add_node t)

let default_delay = Time.span_of_ms 200
let default_queue_limit = 50

let add_duplex t ~a ~b ~bandwidth_bps ?(delay = default_delay)
    ?(queue_limit = default_queue_limit) ?discipline () =
  if a < 0 || a >= t.node_count || b < 0 || b >= t.node_count then
    invalid_arg "Topology.add_duplex: unknown node";
  if a = b then invalid_arg "Topology.add_duplex: self-loop";
  if bandwidth_bps <= 0.0 then invalid_arg "Topology.add_duplex: bandwidth <= 0";
  (* Over a zero delay two nodes can tie on distance, and the tie-break
     can then route each through the other, so a packet bounces between
     them at one instant. Routing also answers a single-link node from
     its link on the premise that the link adds distance. *)
  if delay <= 0 then invalid_arg "Topology.add_duplex: delay must be positive";
  if Hashtbl.mem t.pairs (min a b, max a b) then
    invalid_arg "Topology.add_duplex: duplicate link";
  (* Links build their queues on first wait, so a bad queue config has
     to fail here, naming the argument that carried it. *)
  let valid arg d =
    match Queue_discipline.validate_spec d with
    | Ok () -> d
    | Error msg -> invalid_arg ("Topology.add_duplex: " ^ arg ^ ": " ^ msg)
  in
  let discipline =
    match discipline with
    | Some d -> valid "discipline" d
    | None ->
        valid "queue_limit" (Queue_discipline.Drop_tail { limit = queue_limit })
  in
  Hashtbl.add t.pairs (min a b, max a b) ();
  t.links_rev <- { a; b; bandwidth_bps; delay; discipline } :: t.links_rev

let node_count t = t.node_count
let links t = List.rev t.links_rev

let neighbors t n =
  let ns =
    List.filter_map
      (fun l ->
        if l.a = n then Some l.b else if l.b = n then Some l.a else None)
      t.links_rev
  in
  List.sort_uniq Int.compare ns

(* Iterative DFS over adjacency built in one pass: the recursive walk
   over [neighbors] (itself O(L) per call) both overflowed the stack and
   went quadratic on generated 100k+-node worlds. *)
let is_connected t =
  if t.node_count = 0 then true
  else begin
    let adj = Array.make t.node_count [] in
    List.iter
      (fun l ->
        adj.(l.a) <- l.b :: adj.(l.a);
        adj.(l.b) <- l.a :: adj.(l.b))
      t.links_rev;
    let seen = Array.make t.node_count false in
    let visited = ref 1 in
    seen.(0) <- true;
    let stack = ref [ 0 ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | n :: rest ->
          stack := rest;
          List.iter
            (fun m ->
              if not seen.(m) then begin
                seen.(m) <- true;
                incr visited;
                stack := m :: !stack
              end)
            adj.(n)
    done;
    !visited = t.node_count
  end

let kbps x = x *. 1_000.0
let mbps x = x *. 1_000_000.0
