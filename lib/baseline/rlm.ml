module Sim = Engine.Sim
module Time = Engine.Time
module Stats = Reports.Receiver_stats

type experiment = { layer_added : int; until : Time.t }

(* McCanne et al.'s settings: a join experiment is judged over a 2 s
   detection window; join timers start at 5 s and double on each failed
   experiment up to 120 s; loss above 15% is congestion. *)
let detection_window = Time.span_of_sec 2
let join_timer_initial = Time.span_of_sec 5
let join_timer_max = Time.span_of_sec 120
let loss_threshold = 0.15

type t = {
  network : Net.Network.t;
  router : Multicast.Router.t;
  node : Net.Addr.node_id;
  session : Traffic.Session.t;
  stats : Stats.t;
  rng : Engine.Prng.t;
  join_timers : Time.span array;  (* per target level, multiplicative *)
  mutable experiment : experiment option;
  mutable deaf_until : Time.t;
  mutable next_join_at : Time.t;
  mutable changes : (Time.t * int) list;  (* newest first *)
  mutable failed : int;
  mutable succeeded : int;
  mutable last_loss : float;
  mutable started : bool;
}

let sim t = Net.Network.sim t.network
let session_id t = Traffic.Session.id t.session
let layering t = Traffic.Session.layering t.session

let level t =
  Traffic.Session.subscription_level t.session ~router:t.router ~node:t.node

let set_level t target =
  let target = max 0 (min target (Traffic.Layering.count (layering t))) in
  let current = level t in
  if target <> current then begin
    let id = session_id t in
    if target > current then
      for layer = current to target - 1 do
        Stats.on_join_layer t.stats ~session:id ~layer
      done
    else
      for layer = current - 1 downto target do
        Stats.on_leave_layer t.stats ~session:id ~layer
      done;
    Traffic.Session.set_subscription_level t.session ~router:t.router
      ~node:t.node ~level:target;
    t.changes <- (Sim.now (sim t), target) :: t.changes
  end

let create ~network ~router ~node ~session () =
  let layers = Traffic.Layering.count (Traffic.Session.layering session) in
  let t =
    {
      network;
      router;
      node;
      session;
      stats = Stats.create ();
      rng =
        Sim.rng (Net.Network.sim network) ~label:(Printf.sprintf "rlm-%d" node);
      join_timers = Array.make (layers + 1) join_timer_initial;
      experiment = None;
      deaf_until = Time.zero;
      next_join_at = Time.zero;
      changes = [];
      failed = 0;
      succeeded = 0;
      last_loss = 0.0;
      started = false;
    }
  in
  let arena = Net.Network.arena network in
  Net.Network.add_local_handler network node (fun pkt ->
      if Net.Packet.is_data arena pkt then begin
        let s = Net.Packet.session arena pkt in
        if s = session_id t then
          Stats.on_data t.stats ~session:s
            ~layer:(Net.Packet.layer arena pkt)
            ~seq:(Net.Packet.seq arena pkt)
            ~size:(Net.Packet.size arena pkt)
      end);
  set_level t 1;
  t

let schedule_next_join t =
  let target = level t + 1 in
  if target <= Traffic.Layering.count (layering t) then begin
    let timer = t.join_timers.(target) in
    (* Randomize ±50% to desynchronize receivers. *)
    let jitter =
      Engine.Prng.uniform t.rng ~lo:0.5 ~hi:1.5 *. Time.span_to_sec_f timer
    in
    t.next_join_at <- Time.add (Sim.now (sim t)) (Time.span_of_sec_f jitter)
  end
  else t.next_join_at <- Time.add (Sim.now (sim t)) join_timer_max

(* One tick per second: settle running experiments, shed layers on
   sustained loss, and launch join experiments when the timer fires. *)
let tick t =
  let now = Sim.now (sim t) in
  let id = session_id t in
  let w = Stats.take_window t.stats ~session:id in
  (* RLM's deaf period: after backing out, ignore the residual loss from
     queue drain and IGMP leave latency. *)
  let loss = if Time.(now < t.deaf_until) then 0.0 else w.loss_rate in
  t.last_loss <- loss;
  (match t.experiment with
  | Some e ->
      if loss > loss_threshold then begin
        (* Failed experiment: back out and back off this layer. *)
        t.failed <- t.failed + 1;
        set_level t (e.layer_added - 1);
        t.deaf_until <- Time.add now (Time.span_of_ms 2_500);
        t.join_timers.(e.layer_added) <-
          min join_timer_max (2 * t.join_timers.(e.layer_added));
        t.experiment <- None;
        schedule_next_join t
      end
      else if Time.(now >= e.until) then begin
        t.succeeded <- t.succeeded + 1;
        t.experiment <- None;
        schedule_next_join t
      end
  | None ->
      if loss > loss_threshold && level t > 1 then begin
        set_level t (level t - 1);
        t.deaf_until <- Time.add now (Time.span_of_ms 2_500);
        schedule_next_join t
      end
      else if
        Time.(now >= t.next_join_at)
        && level t < Traffic.Layering.count (layering t)
        && loss <= loss_threshold
      then begin
        let target = level t + 1 in
        set_level t target;
        t.experiment <-
          Some { layer_added = target; until = Time.add now detection_window }
      end)

let start t =
  if not t.started then begin
    t.started <- true;
    schedule_next_join t;
    ignore (Sim.every (sim t) ~period:(Time.span_of_sec 1) (fun () -> tick t))
  end

let changes t = List.rev t.changes
let last_window_loss t = t.last_loss
let failed_experiments t = t.failed
let successful_experiments t = t.succeeded
