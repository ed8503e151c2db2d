module Sim = Engine.Sim
module Time = Engine.Time

type kind =
  | Cbr
  | Vbr of { peak_to_mean : float }

type t = {
  network : Net.Network.t;
  session : Session.t;
  rng : Engine.Prng.t;
  seq : int array;  (* next sequence number per layer *)
  sent : int array;
  mutable bytes : int;
}

let packet_bits = Net.Packet.data_size * 8

let emit t ~layer =
  let session_id = Session.id t.session in
  let group = Session.group_for_layer t.session ~layer in
  Net.Network.originate_data t.network
    ~src:(Session.source t.session)
    ~group ~size:Net.Packet.data_size ~session:session_id ~layer
    ~seq:t.seq.(layer);
  t.seq.(layer) <- t.seq.(layer) + 1;
  t.sent.(layer) <- t.sent.(layer) + 1;
  t.bytes <- t.bytes + Net.Packet.data_size

(* Every emit loop below runs on reusable timers (allocated once per
   layer at kickoff, re-armed in place), so steady-state traffic
   allocates nothing per emission (the packet lives in the arena). The timer
   callback needs its own timer to re-arm; OCaml's recursive-value
   restriction forbids [let rec] through the opaque [Sim.timer], so each
   loop threads the timer through a ref filled right after creation. *)

(* CBR: one packet every packet_bits / rate seconds, forever. *)
let cbr_start t ~layer ~gap ~phase =
  let sim = Net.Network.sim t.network in
  let tmr = ref (Sim.timer sim ignore) in
  let tick () =
    emit t ~layer;
    Sim.arm_after sim !tmr gap
  in
  tmr := Sim.timer sim tick;
  Sim.arm_after sim !tmr phase

(* VBR: per 1 s interval, draw the packet count for the interval and space
   the packets evenly within it. *)
let vbr_interval_count t ~avg ~peak_to_mean =
  let p = peak_to_mean in
  if Engine.Prng.float t.rng < 1.0 /. p then
    Float.max 1.0 ((p *. avg) +. 1.0 -. p)
  else 1.0

(* One in-progress burst. An interval's final continuation event lands
   on (or a hair past) the next interval's start, so the next burst can
   begin while the previous lane's last event is still pending — lanes
   are therefore pooled, each with its own timer and progress state, and
   an interval grabs any lane that is not mid-burst. In practice two
   lanes cover a layer; the pool only grows at startup. A stale lane's
   final firing reads its own exhausted state ([l_k = l_count]) and
   cannot emit a packet from the interval that superseded it. *)
type vbr_lane = {
  mutable l_tmr : Sim.timer;
  mutable l_k : int;  (* next burst position to emit *)
  mutable l_count : int;  (* packets in this lane's interval *)
  mutable l_gap : Time.span;
  mutable l_active : bool;  (* armed, or awaiting its final no-op firing *)
}

let vbr_start t ~layer ~avg ~peak_to_mean ~phase =
  let sim = Net.Network.sim t.network in
  let lanes = ref [] in
  let new_lane () =
    let lane =
      { l_tmr = Sim.timer sim ignore; l_k = 0; l_count = 0; l_gap = 0;
        l_active = false }
    in
    lane.l_tmr <-
      Sim.timer sim (fun () ->
          if lane.l_k < lane.l_count then begin
            emit t ~layer;
            lane.l_k <- lane.l_k + 1;
            Sim.arm_after sim lane.l_tmr lane.l_gap
          end
          else lane.l_active <- false);
    lanes := lane :: !lanes;
    lane
  in
  let acquire () =
    match List.find_opt (fun l -> not l.l_active) !lanes with
    | Some l -> l
    | None -> new_lane ()
  in
  let tmr = ref (Sim.timer sim ignore) in
  let interval_tick () =
    let n = vbr_interval_count t ~avg ~peak_to_mean in
    let count = int_of_float (Float.round n) in
    let gap = Time.span_of_sec_f (1.0 /. float_of_int count) in
    emit t ~layer;
    let lane = acquire () in
    lane.l_k <- 1;
    lane.l_count <- count;
    lane.l_gap <- gap;
    lane.l_active <- true;
    Sim.arm_after sim lane.l_tmr gap;
    Sim.arm_after sim !tmr (Time.span_of_sec 1)
  in
  tmr := Sim.timer sim interval_tick;
  Sim.arm_after sim !tmr phase

let start ~network ~session ~kind ~rng () =
  (* Written so that nan fails the test: a nan or infinite peak-to-mean
     ratio would otherwise pass and send one packet per interval. *)
  (match kind with
  | Vbr { peak_to_mean } ->
      if not (Float.is_finite peak_to_mean && peak_to_mean >= 1.0) then
        invalid_arg "Source.start: peak_to_mean must be finite and >= 1"
  | Cbr -> ());
  let layering = Session.layering session in
  let layers = Layering.count layering in
  let t =
    {
      network;
      session;
      rng;
      seq = Array.make layers 0;
      sent = Array.make layers 0;
      bytes = 0;
    }
  in
  (* Each layer starts at a random phase within its own period so
     co-located sessions do not emit in lockstep — synchronized phases
     make drop-tail deterministically discriminate against whichever
     source happens to enqueue last. *)
  for layer = 0 to layers - 1 do
    let rate = Layering.rate_bps layering ~layer in
    match kind with
    | Cbr ->
        let gap = Time.span_of_sec_f (float_of_int packet_bits /. rate) in
        let phase =
          Time.span_of_sec_f (Engine.Prng.float rng *. Time.span_to_sec_f gap)
        in
        cbr_start t ~layer ~gap ~phase
    | Vbr { peak_to_mean } ->
        let avg = rate /. float_of_int packet_bits in
        let phase = Time.span_of_sec_f (Engine.Prng.float rng) in
        vbr_start t ~layer ~avg ~peak_to_mean ~phase
  done;
  t

let packets_sent t ~layer = t.sent.(layer)
let bytes_sent t = t.bytes
