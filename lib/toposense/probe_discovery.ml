module Sim = Engine.Sim
module Time = Engine.Time

type Net.Packet.payload +=
  | Probe_query of { probe_id : int; session : int }
  | Probe_response of {
      probe_id : int;
      session : int;
      receiver : Net.Addr.node_id;
      level : int;
      hops : Net.Addr.node_id list ref;
    }

let probe_size = 80

type chain = {
  hops : Net.Addr.node_id list;  (* receiver first, controller last *)
  level : int;
  heard_at : Time.t;
}

type t = {
  network : Net.Network.t;
  node : Net.Addr.node_id;
  period : Time.span;
  registered : (int * Net.Addr.node_id, Time.t) Hashtbl.t;
  chains : (int * Net.Addr.node_id, chain) Hashtbl.t;
  mutable next_probe_id : int;
  mutable task : Sim.handle option;
  mutable queries_sent : int;
  mutable responses_received : int;
}

(* Registrations and chains older than this are forgotten. *)
let expiry = Time.span_of_sec 10

let create ~network ~node ?(period = Time.span_of_sec 2) () =
  let t =
    {
      network;
      node;
      period;
      registered = Hashtbl.create 32;
      chains = Hashtbl.create 32;
      next_probe_id = 0;
      task = None;
      queries_sent = 0;
      responses_received = 0;
    }
  in
  (* The mtrace stand-in: every router a probe response crosses appends
     itself to the response's hop list. The observer sees every packet at
     every hop, so it must branch on the unboxed tag before touching the
     payload side table (reconstructing a media payload would allocate). *)
  let arena = Net.Network.arena network in
  Net.Network.add_transit_observer network (fun pkt ~at ~in_iface:_ ->
      if not (Net.Packet.is_data arena pkt) then
        match Net.Packet.payload arena pkt with
        | Probe_response { hops; _ } -> hops := !hops @ [ at ]
        | _ -> ());
  t

let now t = Sim.now (Net.Network.sim t.network)

let fresh t at = Time.diff (now t) at <= expiry

let handle_packet t (pkt : Net.Packet.t) =
  match Net.Packet.payload (Net.Network.arena t.network) pkt with
  | Reports.Rtcp.Report r ->
      (* A report doubles as registration: this receiver exists and wants
         to be probed. *)
      Hashtbl.replace t.registered (r.session, r.receiver) (now t)
  | Probe_response { session; receiver; level; hops; _ } ->
      t.responses_received <- t.responses_received + 1;
      Hashtbl.replace t.chains (session, receiver)
        { hops = !hops; level; heard_at = now t }
  | _ -> ()

let send_queries t =
  let current = now t in
  Hashtbl.iter
    (fun (session, receiver) registered_at ->
      if Time.diff current registered_at <= expiry && receiver <> t.node
      then begin
        t.queries_sent <- t.queries_sent + 1;
        let probe_id = t.next_probe_id in
        t.next_probe_id <- t.next_probe_id + 1;
        Net.Network.originate t.network ~src:t.node
          ~dst:(Net.Addr.Unicast receiver) ~size:probe_size
          ~payload:(Probe_query { probe_id; session })
      end)
    t.registered

let start t =
  if t.task = None then
    t.task <-
      Some
        (Sim.every (Net.Network.sim t.network) ~period:t.period (fun () ->
             send_queries t))

let stop t =
  Option.iter (Sim.cancel (Net.Network.sim t.network)) t.task;
  t.task <- None

let latest t ~session =
  (* Merge the fresh chains into a parent map. A chain lists
     receiver -> ... -> controller; the tree is rooted at the controller
     (the session source when co-located, the domain ingress
     otherwise). *)
  let fresh_chains =
    Hashtbl.fold
      (fun (s, receiver) chain acc ->
        if s = session && fresh t chain.heard_at && chain.hops <> [] then
          (receiver, chain) :: acc
        else acc)
      t.chains []
  in
  match fresh_chains with
  | [] -> None
  | _ ->
      let parent = Hashtbl.create 32 in
      let levels = Hashtbl.create 32 in
      let oldest = ref (now t) in
      List.iter
        (fun (receiver, chain) ->
          if Time.(chain.heard_at < !oldest) then oldest := chain.heard_at;
          Hashtbl.replace levels receiver chain.level;
          let rec walk = function
            | a :: (b :: _ as rest) ->
                Hashtbl.replace parent a b;
                walk rest
            | [ _ ] | [] -> ()
          in
          walk chain.hops)
        fresh_chains;
      (* Max subscription level below each node, for per-edge layer
         sets. *)
      let best_below = Hashtbl.create 32 in
      Hashtbl.iter
        (fun receiver level ->
          (* Bounded walk: chains merged from different instants could in
             principle disagree and form a cycle; never spin on one. *)
          let rec up node steps =
            if steps < Hashtbl.length parent + 2 then begin
              let cur =
                Option.value ~default:0 (Hashtbl.find_opt best_below node)
              in
              if level > cur then Hashtbl.replace best_below node level;
              match Hashtbl.find_opt parent node with
              | Some p when p <> node -> up p (steps + 1)
              | _ -> ()
            end
          in
          up receiver 0)
        levels;
      let edges =
        Hashtbl.fold
          (fun child p acc ->
            let max_level =
              Option.value ~default:1 (Hashtbl.find_opt best_below child)
            in
            {
              Discovery.Snapshot.parent = p;
              child;
              layers = List.init (max 1 max_level) Fun.id;
            }
            :: acc)
          parent []
        |> List.sort (fun (a : Discovery.Snapshot.edge) b ->
               compare (a.parent, a.child) (b.parent, b.child))
      in
      let members =
        Hashtbl.fold (fun r level acc -> (r, level) :: acc) levels []
        |> List.sort compare
      in
      Some
        {
          Discovery.Snapshot.session;
          taken_at = !oldest;
          source = t.node;
          edges;
          members;
          versions = [||];
        }

let queries_sent t = t.queries_sent
let responses_received t = t.responses_received

let known_receivers t ~session =
  Hashtbl.fold
    (fun (s, r) at acc -> if s = session && fresh t at then r :: acc else acc)
    t.registered []
  |> List.sort_uniq Int.compare
