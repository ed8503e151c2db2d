module Sim = Engine.Sim
module Time = Engine.Time

type Net.Packet.payload +=
  | Tcp_data of { flow : int; seq : int }
  | Tcp_ack of { flow : int; ack : int  (** next expected seq *) }

let segment_size = 1000
let ack_size = 40

type t = {
  network : Net.Network.t;
  src : Net.Addr.node_id;
  dst : Net.Addr.node_id;
  flow_id : int;
  (* sender state *)
  mutable next_seq : int;  (* next new segment to send *)
  mutable send_base : int;  (* oldest unacked *)
  mutable cwnd : float;  (* in segments *)
  mutable ssthresh : float;
  mutable dup_acks : int;
  mutable recovery_until : int;  (* NewReno: holes below this are presumed lost *)
  mutable srtt_s : float;
  mutable rttvar_s : float;
  mutable rto_s : float;
  mutable rto_tmr : Sim.timer;  (* reusable RTO timer; re-arming supersedes *)
  mutable send_times : (int * Time.t) list;  (* for RTT samples *)
  (* receiver state *)
  mutable rcv_next : int;
  mutable out_of_order : int list;
  (* stats *)
  mutable bytes_acked : int;
  mutable retransmissions : int;
  mutable timeouts : int;
}

let sim t = Net.Network.sim t.network

let send_segment t seq =
  t.send_times <- (seq, Sim.now (sim t)) :: t.send_times;
  Net.Network.originate t.network ~src:t.src ~dst:(Net.Addr.Unicast t.dst)
    ~size:segment_size
    ~payload:(Tcp_data { flow = t.flow_id; seq })

let inflight t = t.next_seq - t.send_base

(* Fill the window with new segments. *)
let rec pump t =
  if inflight t < int_of_float t.cwnd then begin
    send_segment t t.next_seq;
    t.next_seq <- t.next_seq + 1;
    pump t
  end

(* RTO management: one reusable timer. Re-arming while the previous
   expiry is still pending supersedes it (Sim tombstones the stale
   record), so a firing always means the most recent arm matured — the
   role the per-arm epoch closures used to play, without the per-arm
   allocation. *)
let arm_rto t = Sim.arm_after (sim t) t.rto_tmr (Time.span_of_sec_f t.rto_s)

let on_timeout t =
  if inflight t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    t.ssthresh <- Float.max 2.0 (t.cwnd /. 2.0);
    t.cwnd <- 1.0;
    t.dup_acks <- 0;
    t.recovery_until <- t.next_seq;
    t.rto_s <- Float.min 8.0 (t.rto_s *. 2.0);
    t.retransmissions <- t.retransmissions + 1;
    send_segment t t.send_base;
    arm_rto t
  end
  else arm_rto t

let update_rtt t seq =
  match List.assoc_opt seq t.send_times with
  | None -> ()
  | Some sent_at ->
      let sample = Time.span_to_sec_f (Time.diff (Sim.now (sim t)) sent_at) in
      if t.srtt_s = 0.0 then begin
        t.srtt_s <- sample;
        t.rttvar_s <- sample /. 2.0
      end
      else begin
        t.rttvar_s <-
          (0.75 *. t.rttvar_s) +. (0.25 *. Float.abs (t.srtt_s -. sample));
        t.srtt_s <- (0.875 *. t.srtt_s) +. (0.125 *. sample)
      end;
      t.rto_s <- Float.max 0.2 (t.srtt_s +. (4.0 *. t.rttvar_s))

let on_ack t ack =
  if ack > t.send_base then begin
    (* New data acknowledged. *)
    update_rtt t (ack - 1);
    t.bytes_acked <- t.bytes_acked + ((ack - t.send_base) * segment_size);
    t.send_base <- ack;
    t.send_times <- List.filter (fun (s, _) -> s >= ack) t.send_times;
    t.dup_acks <- 0;
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.0 (* slow start *)
    else t.cwnd <- t.cwnd +. (1.0 /. t.cwnd) (* congestion avoidance *);
    (* NewReno partial ACK: while recovering, an advance that leaves a
       hole means the new send_base was lost too — resend it now rather
       than waiting out another RTO. *)
    if t.send_base < t.recovery_until && t.send_base < t.next_seq then begin
      t.retransmissions <- t.retransmissions + 1;
      send_segment t t.send_base
    end;
    arm_rto t;
    pump t
  end
  else if inflight t > 0 then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 then begin
      (* Fast retransmit + (simplified) fast recovery. *)
      t.ssthresh <- Float.max 2.0 (t.cwnd /. 2.0);
      t.cwnd <- t.ssthresh;
      t.recovery_until <- t.next_seq;
      t.retransmissions <- t.retransmissions + 1;
      send_segment t t.send_base;
      arm_rto t
    end
  end

(* Receiver side: cumulative ACKs, out-of-order segments buffered. *)
let on_data t seq =
  if seq = t.rcv_next then begin
    t.rcv_next <- t.rcv_next + 1;
    let rec absorb () =
      if List.mem t.rcv_next t.out_of_order then begin
        t.out_of_order <- List.filter (fun s -> s <> t.rcv_next) t.out_of_order;
        t.rcv_next <- t.rcv_next + 1;
        absorb ()
      end
    in
    absorb ()
  end
  else if seq > t.rcv_next && not (List.mem seq t.out_of_order) then
    t.out_of_order <- seq :: t.out_of_order;
  Net.Network.originate t.network ~src:t.dst ~dst:(Net.Addr.Unicast t.src)
    ~size:ack_size
    ~payload:(Tcp_ack { flow = t.flow_id; ack = t.rcv_next })

let start ~network ~src ~dst ?(flow_id = 0) () =
  if src = dst then invalid_arg "Tcp_flow.start: src = dst";
  let t =
    {
      network;
      src;
      dst;
      flow_id;
      next_seq = 0;
      send_base = 0;
      cwnd = 2.0;
      ssthresh = 64.0;
      dup_acks = 0;
      recovery_until = 0;
      srtt_s = 0.0;
      rttvar_s = 0.0;
      rto_s = 1.0;
      rto_tmr = Sim.timer (Net.Network.sim network) ignore;
      send_times = [];
      rcv_next = 0;
      out_of_order = [];
      bytes_acked = 0;
      retransmissions = 0;
      timeouts = 0;
    }
  in
  (* The receiver owns its node; the sender listens for ACKs on its own
     node's handler. TCP payloads are boxed control packets, so the
     [is_data] guard keeps the media fast path from touching the side
     table. *)
  let arena = Net.Network.arena network in
  Net.Network.add_local_handler network dst (fun pkt ->
      if not (Net.Packet.is_data arena pkt) then
        match Net.Packet.payload arena pkt with
        | Tcp_data { flow; seq } when flow = flow_id -> on_data t seq
        | _ -> ());
  Net.Network.add_local_handler network src (fun pkt ->
      if not (Net.Packet.is_data arena pkt) then
        match Net.Packet.payload arena pkt with
        | Tcp_ack { flow; ack } when flow = flow_id -> on_ack t ack
        | _ -> ());
  t.rto_tmr <- Sim.timer (Net.Network.sim network) (fun () -> on_timeout t);
  pump t;
  arm_rto t;
  t

let bytes_acked t = t.bytes_acked

let throughput_bps t ~over =
  float_of_int (t.bytes_acked * 8) /. Time.span_to_sec_f over

let cwnd t = t.cwnd
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
