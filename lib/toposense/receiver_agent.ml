module Sim = Engine.Sim
module Time = Engine.Time
module Stats = Reports.Receiver_stats

type session_state = {
  session : Traffic.Session.t;
  mutable last_suggestion : Time.t;
  mutable last_window_loss : float;
  mutable probe_deadline : Time.t;  (* unilateral add no earlier than this *)
  mutable deaf_until : Time.t;  (* suppress loss after a drop *)
  mutable changes : (Time.t * int) list;  (* newest first *)
  mutable unsubscribed : bool;
      (* departed: no reports, no watchdog, stray suggestions ignored *)
  (* RLM-fallback machine (only driven when [params.rlm_fallback]) *)
  mutable fb_active : bool;
  mutable fb_since : Time.t;
  mutable fb_total : Time.span;  (* closed fallback episodes *)
  mutable experiment : (int * Time.t) option;  (* (level added, settle at) *)
  mutable join_timers : Time.span array;  (* per target level, ×2 on failure *)
  mutable next_join_at : Time.t;
}

type t = {
  network : Net.Network.t;
  arena : Net.Packet.arena;
  router : Multicast.Router.t;
  params : Params.t;
  node : Net.Addr.node_id;
  mutable controller : Net.Addr.node_id;  (* re-pointed on failover *)
  stats : Stats.t;
  rng : Engine.Prng.t;
  fb_rng : Engine.Prng.t;
      (* fallback randomness is a separate stream so enabling the
         fallback machine cannot perturb the legacy watchdog draws *)
  fb_backoff : Backoff.t;
  proto_tx : Protocol.tx;  (* report/goodbye seq, keyed (session, self) *)
  proto_rx : Protocol.rx;  (* prescription seq, keyed (session, controller) *)
  sessions : (int, session_state) Hashtbl.t;
  mutable tasks : Sim.handle list;
  mutable suggestions_received : int;
  mutable unilateral_actions : int;
  mutable acks_sent : int;
  mutable dup_suggestions : int;
  mutable stale_suggestions : int;
  mutable stray_suggestions : int;
  mutable fallback_entries : int;
}

let sim t = Net.Network.sim t.network

let level t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> 0
  | Some st ->
      Traffic.Session.subscription_level st.session ~router:t.router
        ~node:t.node

let set_level t ~session ~level:target =
  match Hashtbl.find_opt t.sessions session with
  | None -> invalid_arg "Receiver_agent.set_level: unknown session"
  | Some st ->
      let layering = Traffic.Session.layering st.session in
      let target = max 0 (min target (Traffic.Layering.count layering)) in
      let current = level t ~session in
      if target <> current then begin
        (* Keep accounting epochs in step with membership. *)
        if target > current then
          for layer = current to target - 1 do
            Stats.on_join_layer t.stats ~session ~layer
          done
        else
          for layer = current - 1 downto target do
            Stats.on_leave_layer t.stats ~session ~layer
          done;
        Traffic.Session.set_subscription_level st.session ~router:t.router
          ~node:t.node ~level:target;
        let now = Sim.now (sim t) in
        if target < current then
          st.deaf_until <- Time.add now t.params.deaf_period;
        st.changes <- (now, target) :: st.changes
      end

(* ---------- RLM-style fallback (params.rlm_fallback) ---------- *)

(* Ceiling on the multiplicative join timers; also the re-probe period
   once all layers are held (RLM uses 120 s against a 10–30 s initial). *)
let fb_join_max t = Time.mul_span t.params.backoff_max 4

let schedule_next_join t id st ~now =
  let count = Traffic.Layering.count (Traffic.Session.layering st.session) in
  let target = level t ~session:id + 1 in
  let timer =
    if target >= 1 && target <= count then st.join_timers.(target)
    else fb_join_max t
  in
  (* Randomize ±50% to desynchronize receivers (RLM's jitter). *)
  let jitter =
    Engine.Prng.uniform t.fb_rng ~lo:0.5 ~hi:1.5 *. Time.span_to_sec_f timer
  in
  st.next_join_at <- Time.add now (Time.span_of_sec_f jitter)

let enter_fallback t id st ~now =
  st.fb_active <- true;
  st.fb_since <- now;
  st.experiment <- None;
  t.fallback_entries <- t.fallback_entries + 1;
  schedule_next_join t id st ~now

let close_fallback st ~now =
  if st.fb_active then begin
    st.fb_active <- false;
    st.fb_total <- st.fb_total + Time.diff now st.fb_since;
    st.experiment <- None
  end

(* One watchdog tick of the standalone machine: settle the running join
   experiment, shed on sustained loss, or launch a join experiment when
   the randomized timer fires and no back-off blocks the layer. *)
let fallback_tick t id st ~now =
  let count = Traffic.Layering.count (Traffic.Session.layering st.session) in
  let current = level t ~session:id in
  let loss = if Time.(now < st.deaf_until) then 0.0 else st.last_window_loss in
  match st.experiment with
  | Some (added, settle_at) ->
      if loss > t.params.p_high then begin
        (* Failed experiment: back out, back off the layer, double its
           join timer (RLM's multiplicative backoff). *)
        t.unilateral_actions <- t.unilateral_actions + 1;
        set_level t ~session:id ~level:(added - 1);
        Backoff.arm t.fb_backoff ~session:id ~node:t.node ~layer:(added - 1)
          ~now;
        st.join_timers.(added) <-
          min (fb_join_max t) (2 * st.join_timers.(added));
        st.experiment <- None;
        schedule_next_join t id st ~now
      end
      else if Time.(now >= settle_at) then begin
        st.experiment <- None;
        schedule_next_join t id st ~now
      end
  | None ->
      if loss > t.params.p_high && current > 1 then begin
        t.unilateral_actions <- t.unilateral_actions + 1;
        set_level t ~session:id ~level:(current - 1);
        Backoff.arm t.fb_backoff ~session:id ~node:t.node ~layer:(current - 1)
          ~now;
        schedule_next_join t id st ~now
      end
      else if
        Time.(now >= st.next_join_at)
        && current < count
        && loss <= t.params.p_threshold
        && Time.(now >= st.deaf_until)
        && not
             (Backoff.active t.fb_backoff ~session:id ~node:t.node
                ~layer:current ~now)
      then begin
        t.unilateral_actions <- t.unilateral_actions + 1;
        set_level t ~session:id ~level:(current + 1);
        st.experiment <- Some (current + 1, Time.add now t.params.interval)
      end

(* Resync: a fresh in-sequence prescription ends the fallback episode;
   adopt the controller's level outright and cancel any running
   experiment. *)
let resync t id st ~suggested ~now =
  close_fallback st ~now;
  set_level t ~session:id ~level:suggested

let send_ack t ~session ~seq ~dst =
  t.acks_sent <- t.acks_sent + 1;
  Net.Network.originate t.network ~src:t.node ~dst:(Net.Addr.Unicast dst)
    ~size:Protocol.ack_size
    ~payload:(Protocol.Ack { session; receiver = t.node; seq })

(* The media fast path branches on the unboxed tag and never touches the
   boxed payload side table; control packets (rare) reconstruct theirs. *)
let on_packet t (pkt : Net.Packet.t) =
  if Net.Packet.is_data t.arena pkt then
    Stats.on_data t.stats
      ~session:(Net.Packet.session t.arena pkt)
      ~layer:(Net.Packet.layer t.arena pkt)
      ~seq:(Net.Packet.seq t.arena pkt)
      ~size:(Net.Packet.size t.arena pkt)
  else
    match Net.Packet.payload t.arena pkt with
    | Probe_discovery.Probe_query { probe_id; session } -> (
        (* Answer the discovery probe; routers fill in the hop list on the
           way back to the controller. *)
        match Hashtbl.find_opt t.sessions session with
        | None -> ()
        | Some st when st.unsubscribed -> ()
        | Some _ ->
            Net.Network.originate t.network ~src:t.node
              ~dst:(Net.Addr.Unicast (Net.Packet.src t.arena pkt))
              ~size:Probe_discovery.probe_size
              ~payload:
                (Probe_discovery.Probe_response
                   {
                     probe_id;
                     session;
                     receiver = t.node;
                     level = level t ~session;
                     hops = ref [];
                   }))
    | Controller.Suggestion { session; level = suggested; seq } -> (
        match Hashtbl.find_opt t.sessions session with
        | None -> ()
        | Some st when st.unsubscribed ->
            (* A lingering prescription computed from a stale snapshot
               after we said goodbye; obeying it would resurrect the
               membership. *)
            t.stray_suggestions <- t.stray_suggestions + 1
        | Some st -> (
            t.suggestions_received <- t.suggestions_received + 1;
            let from = Net.Packet.src t.arena pkt in
            match Protocol.admit t.proto_rx ~session ~node:from ~seq with
            | Protocol.Stale ->
                t.stale_suggestions <- t.stale_suggestions + 1
            | Protocol.Duplicate ->
                (* Already applied; the ACK must have been lost — re-ACK,
                   never re-apply. *)
                t.dup_suggestions <- t.dup_suggestions + 1;
                if t.params.reliable_prescriptions then
                  send_ack t ~session ~seq ~dst:from
            | Protocol.Fresh ->
                if t.params.reliable_prescriptions then
                  send_ack t ~session ~seq ~dst:from;
                let now = Sim.now (sim t) in
                st.last_suggestion <- now;
                if st.fb_active then resync t session st ~suggested ~now
                else begin
                  (* The controller's view of our level lags by a report;
                     obey drops verbatim but climb at most one layer at a
                     time. *)
                  let current = level t ~session in
                  let target =
                    if suggested > current then current + 1 else suggested
                  in
                  set_level t ~session ~level:target
                end))
    | _ -> ()

let create ~network ~router ~params ~node ~controller () =
  let sim = Net.Network.sim network in
  let t =
    {
      network;
      arena = Net.Network.arena network;
      router;
      params;
      node;
      controller;
      stats = Stats.create ();
      rng = Sim.rng sim ~label:(Printf.sprintf "receiver-%d" node);
      fb_rng = Sim.rng sim ~label:(Printf.sprintf "fallback-%d" node);
      fb_backoff =
        Backoff.create ~params
          ~rng:(Sim.rng sim ~label:(Printf.sprintf "fallback-backoff-%d" node));
      proto_tx = Protocol.create_tx ();
      proto_rx = Protocol.create_rx ();
      sessions = Hashtbl.create 4;
      tasks = [];
      suggestions_received = 0;
      unilateral_actions = 0;
      acks_sent = 0;
      dup_suggestions = 0;
      stale_suggestions = 0;
      stray_suggestions = 0;
      fallback_entries = 0;
    }
  in
  Net.Network.add_local_handler network node (fun pkt -> on_packet t pkt);
  t

let fresh_session_state t session ~now =
  let layers = Traffic.Layering.count (Traffic.Session.layering session) in
  {
    session;
    last_suggestion = now;
    last_window_loss = 0.0;
    probe_deadline = now;
    deaf_until = now;
    changes = [];
    unsubscribed = false;
    fb_active = false;
    fb_since = now;
    fb_total = 0;
    experiment = None;
    join_timers = Array.make (layers + 1) t.params.backoff_min;
    next_join_at = now;
  }

let subscribe t ~session ~initial_level =
  let id = Traffic.Session.id session in
  let now = Sim.now (sim t) in
  (match Hashtbl.find_opt t.sessions id with
  | Some st when st.unsubscribed ->
      (* Re-subscribe after a goodbye: keep the change log, restart the
         control machinery clean. The report sequence space keeps
         counting up, so the controller's dup/stale filter re-admits us
         on the first new report. *)
      st.unsubscribed <- false;
      st.last_suggestion <- now;
      st.last_window_loss <- 0.0;
      st.probe_deadline <- now;
      st.deaf_until <- now;
      st.fb_active <- false;
      st.experiment <- None;
      st.next_join_at <- now
  | Some _ -> invalid_arg "Receiver_agent.subscribe: already subscribed"
  | None -> Hashtbl.add t.sessions id (fresh_session_state t session ~now));
  set_level t ~session:id ~level:initial_level

let unsubscribe t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> invalid_arg "Receiver_agent.unsubscribe: unknown session"
  | Some st ->
      if not st.unsubscribed then begin
        let now = Sim.now (sim t) in
        close_fallback st ~now;
        set_level t ~session ~level:0;
        st.unsubscribed <- true;
        (* The goodbye rides the report sequence space: any report of
           ours still in flight is older and lands as stale. *)
        let seq = Protocol.next_seq t.proto_tx ~session ~node:t.node in
        Net.Network.originate t.network ~src:t.node
          ~dst:(Net.Addr.Unicast t.controller) ~size:Protocol.goodbye_size
          ~payload:(Protocol.Goodbye { session; receiver = t.node; seq })
      end

let send_reports t =
  let now = Sim.now (sim t) in
  Hashtbl.iter
    (fun id st ->
      if not st.unsubscribed then begin
        let w = Stats.take_window t.stats ~session:id in
        (* Loss measured while the network is still draining a drop we just
           made is reported truthfully (the controller needs it to correlate
           siblings and estimate capacities) but flagged as settling so it
           does not trigger a further reduction of this receiver. *)
        let settling = Time.(now < st.deaf_until) in
        st.last_window_loss <- w.loss_rate;
        Reports.Rtcp.send_report ~network:t.network ~receiver:t.node
          ~controller:t.controller ~session:id ~level:(level t ~session:id)
          ~window:t.params.report_interval ~settling
          ~seq:(Protocol.next_seq t.proto_tx ~session:id ~node:t.node)
          w
      end)
    t.sessions

(* Unilateral fallback: the controller has gone quiet for this session —
   keep reception safe without it. With [rlm_fallback] the full
   standalone join-experiment machine takes over; otherwise the legacy
   probe/shed watchdog: sustained high loss sheds the top layer, clean
   reception probes one layer up at a randomized period. *)
let watchdog t =
  let now = Sim.now (sim t) in
  let timeout = Time.mul_span t.params.interval t.params.suggestion_timeout_intervals in
  Hashtbl.iter
    (fun id st ->
      if st.unsubscribed then ()
      else if t.params.rlm_fallback then begin
        if Time.diff now st.last_suggestion > timeout then begin
          if not st.fb_active then enter_fallback t id st ~now;
          fallback_tick t id st ~now
        end
      end
      else if Time.diff now st.last_suggestion > timeout then begin
        let current = level t ~session:id in
        if
          st.last_window_loss > t.params.p_high
          && current > 1
          && Time.(now >= st.deaf_until)
        then begin
          t.unilateral_actions <- t.unilateral_actions + 1;
          set_level t ~session:id ~level:(current - 1);
          st.probe_deadline <-
            Time.add now
              (Engine.Prng.int t.rng
                 ~bound:(t.params.backoff_max - t.params.backoff_min + 1)
              + t.params.backoff_min)
        end
        else if
          st.last_window_loss <= t.params.p_threshold
          && Time.(now >= st.probe_deadline)
          (* Same deaf guard as the shed branch: a join experiment while
             the network is still draining a drop we just made would read
             the settling loss as the new layer's fault. *)
          && Time.(now >= st.deaf_until)
          && current < Traffic.Layering.count (Traffic.Session.layering st.session)
        then begin
          t.unilateral_actions <- t.unilateral_actions + 1;
          set_level t ~session:id ~level:(current + 1);
          st.probe_deadline <-
            Time.add now
              (Engine.Prng.int t.rng
                 ~bound:(t.params.backoff_max - t.params.backoff_min + 1)
              + t.params.backoff_min)
        end
      end)
    t.sessions

let start t =
  if t.tasks = [] then begin
    let s = sim t in
    t.tasks <-
      [
        Sim.every s ~period:t.params.report_interval (fun () -> send_reports t);
        Sim.every s ~period:t.params.interval (fun () -> watchdog t);
      ]
  end

let stop t =
  List.iter (Sim.cancel (sim t)) t.tasks;
  t.tasks <- []

let changes t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> []
  | Some st -> List.rev st.changes

let last_window_loss t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> 0.0
  | Some st -> st.last_window_loss

let last_suggestion_at t ~session =
  Option.map
    (fun st -> st.last_suggestion)
    (Hashtbl.find_opt t.sessions session)

let set_controller t ~controller = t.controller <- controller
let controller t = t.controller

let suggestions_received t = t.suggestions_received
let unilateral_actions t = t.unilateral_actions
let acks_sent t = t.acks_sent
let dup_suggestions t = t.dup_suggestions
let stale_suggestions t = t.stale_suggestions
let stray_suggestions t = t.stray_suggestions
let fallback_entries t = t.fallback_entries

let fallback_seconds t ~session =
  match Hashtbl.find_opt t.sessions session with
  | None -> 0.0
  | Some st ->
      let open_span =
        if st.fb_active then Time.diff (Sim.now (sim t)) st.fb_since else 0
      in
      Time.span_to_sec_f (st.fb_total + open_span)

let node t = t.node

let sessions t =
  Hashtbl.fold
    (fun _ st acc ->
      if st.unsubscribed then acc else st.session :: acc)
    t.sessions []
