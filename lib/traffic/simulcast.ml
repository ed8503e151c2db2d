module Router = Multicast.Router
module Addr = Net.Addr

type t = {
  id : int;
  source : Addr.node_id;
  layering : Layering.t;
  groups : Addr.group_id array;
}

let create ~router ~source ~layering ~id =
  let groups =
    Array.init (Layering.count layering) (fun _ ->
        Router.fresh_group router ~source)
  in
  { id; source; layering; groups }

let stream_count t = Array.length t.groups

let rate_bps t ~stream =
  if stream < 0 || stream >= stream_count t then
    invalid_arg "Simulcast.rate_bps: stream";
  Layering.cumulative_bps t.layering ~level:(stream + 1)

let group_for_stream t ~stream =
  if stream < 0 || stream >= stream_count t then
    invalid_arg "Simulcast.group_for_stream: stream";
  t.groups.(stream)

let selected t ~router ~node =
  let rec find k =
    if k >= stream_count t then None
    else if Router.is_member router ~node ~group:t.groups.(k) then Some k
    else find (k + 1)
  in
  find 0

let select t ~router ~node ~stream =
  (match stream with
  | Some s when s < 0 || s >= stream_count t ->
      invalid_arg "Simulcast.select: stream"
  | Some _ | None -> ());
  match (selected t ~router ~node, stream) with
  | cur, want when cur = want -> ()
  | cur, want ->
      Option.iter (fun s -> Router.leave router ~node ~group:t.groups.(s)) cur;
      Option.iter (fun s -> Router.join router ~node ~group:t.groups.(s)) want

type sender = { mutable sent : int }

(* Each replica is an independent always-on CBR flow at its full rate on
   its own group; a random initial phase desynchronizes replicas. *)
let start_sources ~network t ~rng =
  List.init (stream_count t) (fun stream ->
      let sender = { sent = 0 } in
      let sim = Net.Network.sim network in
      let gap_s =
        float_of_int (Net.Packet.data_size * 8) /. rate_bps t ~stream
      in
      let gap = Engine.Time.span_of_sec_f gap_s in
      let seq = ref 0 in
      let rec tick () =
        Net.Network.originate_data network ~src:t.source
          ~group:t.groups.(stream) ~size:Net.Packet.data_size ~session:t.id
          ~layer:stream ~seq:!seq;
        incr seq;
        sender.sent <- sender.sent + 1;
        ignore (Engine.Sim.schedule_after sim gap tick)
      in
      let phase = Engine.Time.span_of_sec_f (Engine.Prng.float rng *. gap_s) in
      ignore (Engine.Sim.schedule_after sim phase tick);
      sender)

let packets_sent sender = sender.sent
