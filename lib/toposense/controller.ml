module Sim = Engine.Sim
module Time = Engine.Time

type Net.Packet.payload +=
  | Suggestion of { session : int; level : int; seq : int }

let suggestion_size = 60

(* Report accumulation between algorithm runs. *)
type acc = {
  mutable loss_sum : float;
  mutable report_count : int;
  mutable bytes : int;
  mutable level : int;
  mutable settling : bool;
  mutable any_sustained : bool;
}

type status = Active | Evicted

(* An unACKed prescription awaiting retransmission (only with
   [reliable_prescriptions]). *)
type pending = { seq : int; level : int; attempt : int; handle : Sim.handle }

type receiver_state = {
  mutable fresh : acc option;  (* reports since the last run *)
  mutable last_loss : float;  (* carried forward when reports are lost *)
  mutable last_level : int;
  mutable level_changed_at : Time.t;  (* when a report last showed a new level *)
  mutable last_report_at : Time.t;  (* lease refresh *)
  mutable status : status;
  mutable pending : pending option;
}

type t = {
  network : Net.Network.t;
  discovery : Discovery.Service.t;
  params : Params.t;
  node : Net.Addr.node_id;
  domain : Discovery.Service.domain option;
  probe : Probe_discovery.t option;
  federation : Federation.leaf option;
  algorithm : Algorithm.t;
  trees : Tree.t Int_table.t;
      (** per session, the last tree built: the next snapshot of an
          unchanged shape keeps its numbering *)
  mutable sessions_rev : Traffic.Session.t list;
      (** newest first; O(1) registration, reversed at each use *)
  receivers : (int * Net.Addr.node_id, receiver_state) Hashtbl.t;
  known : Util.Bitset.t Int_table.t;
      (** per-session lease book: receivers a report was admitted from.
          Consulted (only) under [prescribe_known_only] so the
          controller's state and suggestion traffic scale with the
          receivers that actually talk to it, not with tree size *)
  settling_scratch : unit Int_table.t;
      (** interval-lived scratch behind [session_input]'s [frozen]
          closures, keyed [(node lsl 21) lor session] (node ids stay
          well under 2^42, session ids under 2^21). Shared across the
          interval's sessions — the closures are all consulted inside
          the same [Algorithm.step] — and cleared once per interval, so
          the per-session [Hashtbl.create] is off the steady-state
          allocation profile. *)
  proto_tx : Protocol.tx;  (* prescription seq, per (session, receiver) *)
  proto_rx : Protocol.rx;  (* report seq, per (session, receiver) *)
  proto_rng : Engine.Prng.t;
      (* dedicated stream: retransmission jitter must not perturb the
         algorithm's or the receivers' randomness *)
  mutable task : Sim.handle option;
  mutable running : bool;
      (** between {!start}/{!stop}; a stopped controller is deaf, so a
          restart resumes from state no fresher than the outage *)
  mutable was_stopped : bool;
      (** a restart after a stop models a process coming back: the
          federation leaf's summary stream is rebased so the parent can
          tell the new incarnation from old stragglers *)
  mutable reports_received : int;
  mutable suggestions_sent : int;
  mutable self_suppressed : int;
  mutable lease_suppressed : int;
  mutable summaries_sent : int;
  mutable invalid_snapshots : int;
  mutable intervals_run : int;
  mutable skipped_no_snapshot : int;
  mutable evictions : int;
  mutable readmissions : int;
  mutable retransmits : int;
  mutable give_ups : int;
  mutable stale_rejected : int;
  mutable acks_received : int;
  mutable billing : Billing.t option;
}

let receiver_state t ~session ~node =
  match Hashtbl.find_opt t.receivers (session, node) with
  | Some s -> s
  | None ->
      let now = Sim.now (Net.Network.sim t.network) in
      let s =
        {
          fresh = None;
          last_loss = 0.0;
          last_level = 0;
          level_changed_at = now;
          last_report_at = now;
          status = Active;
          pending = None;
        }
      in
      Hashtbl.add t.receivers (session, node) s;
      s

let cancel_pending t st =
  match st.pending with
  | None -> ()
  | Some p ->
      Sim.cancel (Net.Network.sim t.network) p.handle;
      st.pending <- None

let known_set t ~session =
  match Int_table.find t.known session with
  | s -> s
  | exception Not_found ->
      let s = Util.Bitset.create () in
      Int_table.add t.known session s;
      s

let on_report t ~session ~receiver ~level ~loss_rate ~bytes ~settling
    ~sustained =
  t.reports_received <- t.reports_received + 1;
  Util.Bitset.add (known_set t ~session) receiver;
  let st = receiver_state t ~session ~node:receiver in
  let now = Sim.now (Net.Network.sim t.network) in
  (match st.status with
  | Active -> ()
  | Evicted ->
      (* Soft-state re-admission: the lease expired and this is a
         genuinely new report — start clean.
         Rebase the level-change clock on the reported level rather than
         resetting it: the receiver has been holding that level on its
         own, and charging it the full post-change settling hold here
         would delay reconvergence by two extra intervals. If the
         snapshot disagrees (a real change), [session_input] still
         resets the clock. *)
      t.readmissions <- t.readmissions + 1;
      st.status <- Active;
      st.fresh <- None;
      st.last_loss <- 0.0;
      st.last_level <- level);
  st.last_report_at <- now;
  (match st.fresh with
  | Some a ->
      a.loss_sum <- a.loss_sum +. loss_rate;
      a.report_count <- a.report_count + 1;
      a.bytes <- a.bytes + bytes;
      a.level <- level;
      a.settling <- a.settling || settling;
      a.any_sustained <- a.any_sustained || sustained
  | None ->
      st.fresh <-
        Some
          {
            loss_sum = loss_rate;
            report_count = 1;
            bytes;
            level;
            settling;
            any_sustained = sustained;
          });
  (* [level] rides along in the report but the controller's view of
     subscription levels comes from the topology image (possibly stale),
     as in the paper — that is exactly the lever Fig. 10 studies. The
     reported level is only consulted at re-admission, above. *)
  ()

let on_ack t ~session ~receiver ~seq =
  t.acks_received <- t.acks_received + 1;
  match Hashtbl.find_opt t.receivers (session, receiver) with
  | None -> ()
  | Some st -> (
      match st.pending with
      | Some p when p.seq = seq -> cancel_pending t st
      | _ -> () (* ACK for a superseded prescription; the newer one stands *))

let create ~network ~discovery ~params ~node ?domain ?probe ?federation () =
  let sim = Net.Network.sim network in
  let domain =
    Option.map (Discovery.Service.register_domain discovery ~owner:node) domain
  in
  let t =
    {
      network;
      discovery;
      params;
      node;
      domain;
      probe;
      federation;
      algorithm = Algorithm.create ~params ~rng:(Sim.rng sim ~label:"toposense");
      trees = Int_table.create 8;
      sessions_rev = [];
      receivers = Hashtbl.create 64;
      known = Int_table.create 8;
      settling_scratch = Int_table.create 64;
      proto_tx = Protocol.create_tx ();
      proto_rx = Protocol.create_rx ();
      proto_rng = Sim.rng sim ~label:"toposense-protocol";
      task = None;
      running = true;
      was_stopped = false;
      reports_received = 0;
      suggestions_sent = 0;
      self_suppressed = 0;
      lease_suppressed = 0;
      summaries_sent = 0;
      invalid_snapshots = 0;
      intervals_run = 0;
      skipped_no_snapshot = 0;
      evictions = 0;
      readmissions = 0;
      retransmits = 0;
      give_ups = 0;
      stale_rejected = 0;
      acks_received = 0;
      billing = None;
    }
  in
  let arena = Net.Network.arena network in
  Net.Network.add_local_handler network node (fun pkt ->
      if (not t.running) || Net.Packet.is_data arena pkt then ()
      else begin
      Option.iter (fun p -> Probe_discovery.handle_packet p pkt) t.probe;
      match Net.Packet.payload arena pkt with
      | Reports.Rtcp.Report r -> (
          match
            Protocol.admit t.proto_rx ~session:r.session ~node:r.receiver
              ~seq:r.seq
          with
          | Protocol.Duplicate | Protocol.Stale ->
              t.stale_rejected <- t.stale_rejected + 1
          | Protocol.Fresh ->
              Option.iter
                (fun b ->
                  Billing.record b ~session:r.session ~receiver:r.receiver
                    ~bytes:r.bytes ~level:r.level ~window:r.window)
                t.billing;
              on_report t ~session:r.session ~receiver:r.receiver
                ~level:r.level ~loss_rate:r.loss_rate ~bytes:r.bytes
                ~settling:r.settling ~sustained:r.sustained)
      | Protocol.Ack { session; receiver; seq } ->
          on_ack t ~session ~receiver ~seq
      | _ -> ()
      end);
  t

(* PR 1 removed the same quadratic [l @ [x]] pattern from [Net.Network];
   registration order still matters for deterministic interval runs, so
   the reversal happens at use, not here. *)
let add_session t session = t.sessions_rev <- session :: t.sessions_rev

let set_billing t billing = t.billing <- Some billing

(* Fold the accumulated reports into per-member measures for one session
   tree; receivers whose reports were all lost keep their last loss and
   contribute zero fresh bytes. Evicted members are left out entirely:
   their share of the session's demand and capacity evidence flows back
   to the survivors. *)
let session_input t session tree =
  let id = Traffic.Session.id session in
  (* Under [prescribe_known_only] the lease-book check comes first —
     before [receiver_state], which would otherwise allocate an entry per
     tree member and make controller state O(receivers) in worlds where
     only a sampled subset ever reports. Only these members are
     prescribed to; an evicted one among them is counted in
     [lease_suppressed]. *)
  let candidates =
    let all = Tree.members tree in
    if not t.params.prescribe_known_only then all
    else
      match Int_table.find t.known id with
      | exception Not_found -> []
      | known -> List.filter (fun (node, _) -> Util.Bitset.mem known node) all
  in
  let members =
    List.filter
      (fun (node, _) -> (receiver_state t ~session:id ~node).status = Active)
      candidates
  in
  let settling_tbl = t.settling_scratch in
  let settling_key node = (node lsl 21) lor id in
  let now = Sim.now (Net.Network.sim t.network) in
  let measures, levels =
    List.fold_left
      (fun (measures, levels) (node, snapshot_level) ->
        let st = receiver_state t ~session:id ~node in
        let loss, bytes =
          match st.fresh with
          | Some a ->
              let loss = a.loss_sum /. float_of_int a.report_count in
              (* Section V's bursty-vs-sustained filter: a lone lossy
                 window among clean ones is treated as a burst, not
                 congestion. *)
              let loss =
                if t.params.require_sustained_loss && not a.any_sustained
                then 0.0
                else loss
              in
              st.fresh <- None;
              st.last_loss <- loss;
              if a.settling then
                Int_table.replace settling_tbl (settling_key node) ();
              (loss, a.bytes)
          | None -> (st.last_loss, 0)
        in
        if snapshot_level <> st.last_level then st.level_changed_at <- now;
        st.last_level <- snapshot_level;
        ((node, (loss, bytes)) :: measures, (node, snapshot_level) :: levels))
      ([], []) members
  in
  (* The subscription walk consults [may_add] for every tree member, not
     just the measured ones — under [prescribe_known_only] gate it on the
     lease book before touching [receiver_state], or the walk would
     allocate an entry per member and quietly rebuild the O(receivers)
     footprint this mode exists to avoid. *)
  let may_add node =
    (not t.params.prescribe_known_only
    ||
    match Int_table.find t.known id with
    | known -> Util.Bitset.mem known node
    | exception Not_found -> false)
    &&
    let st = receiver_state t ~session:id ~node in
    Time.diff now st.level_changed_at >= Time.mul_span t.params.interval 2
  in
  {
    Algorithm.id;
    layering = Traffic.Session.layering session;
    tree;
    measures;
    levels;
    recipients = List.map fst candidates;
    may_add;
    frozen = (fun node -> Int_table.mem settling_tbl (settling_key node));
  }

(* Expired leases: a receiver silent for [lease_intervals] TopoSense
   intervals is soft-state-evicted. No event or randomness is involved,
   so the sweep is free in runs where every lease is refreshed on
   time. *)
let sweep_leases t ~now =
  let lease = Time.mul_span t.params.interval t.params.lease_intervals in
  Hashtbl.iter
    (fun _ st ->
      if st.status = Active && Time.diff now st.last_report_at > lease then begin
        t.evictions <- t.evictions + 1;
        st.status <- Evicted;
        st.fresh <- None;
        st.last_loss <- 0.0;
        cancel_pending t st
      end)
    t.receivers

let send_suggestion t ~session ~receiver ~level ~seq =
  Net.Network.originate t.network ~src:t.node
    ~dst:(Net.Addr.Unicast receiver) ~size:suggestion_size
    ~payload:(Suggestion { session; level; seq })

(* Retransmission chain for one unACKed prescription. [attempt] is the
   number of retransmissions already made when the timer fires. *)
let rec arm_retransmit t st ~session ~receiver ~seq ~level ~attempt =
  let sim = Net.Network.sim t.network in
  let span =
    Protocol.backoff_span ~params:t.params ~rng:t.proto_rng ~attempt
  in
  let handle =
    Sim.schedule_after sim span (fun () ->
        match st.pending with
        | Some p when p.seq = seq ->
            st.pending <- None;
            if t.running && st.status = Active then begin
              if attempt >= t.params.retransmit_attempts then
                t.give_ups <- t.give_ups + 1
              else begin
                t.retransmits <- t.retransmits + 1;
                send_suggestion t ~session ~receiver ~level ~seq;
                arm_retransmit t st ~session ~receiver ~seq ~level
                  ~attempt:(attempt + 1)
              end
            end
        | _ -> ())
  in
  st.pending <- Some { seq; level; attempt; handle }

let run_interval t =
  t.intervals_run <- t.intervals_run + 1;
  let sim = Net.Network.sim t.network in
  let now = Sim.now sim in
  sweep_leases t ~now;
  (* Last interval's settling marks are dead — their [frozen] closures
     were only ever consulted inside that interval's [Algorithm.step]. *)
  Int_table.clear t.settling_scratch;
  let inputs =
    List.filter_map
      (fun session ->
        let id = Traffic.Session.id session in
        let queried =
          match t.probe with
          | Some p -> Probe_discovery.latest p ~session:id
          | None ->
              Discovery.Service.query t.discovery ~session:id
                ~staleness:t.params.staleness
        in
        match queried with
        | None ->
            t.skipped_no_snapshot <- t.skipped_no_snapshot + 1;
            None
        | Some snap -> (
            (* Per-domain control (paper Fig. 3): this controller only
               sees and manages its own administrative domain's part of
               the session tree, cut once per snapshot for every domain
               registered with the service. *)
            let snap =
              match t.domain with
              | None -> Some snap
              | Some domain -> Discovery.Service.restrict t.discovery domain snap
            in
            match snap with
            | None ->
                t.skipped_no_snapshot <- t.skipped_no_snapshot + 1;
                None
            | Some snap -> (
                let prev = Int_table.find_opt t.trees id in
                match Tree.of_snapshot ?prev snap with
                | None ->
                    (* With faults injected the discovery image can be
                       genuinely wrong, not merely stale — e.g. a child
                       with two recorded parents mid-repair. Skip the
                       session this interval rather than acting on a
                       non-tree. *)
                    t.invalid_snapshots <- t.invalid_snapshots + 1;
                    None
                | Some tree ->
                    Int_table.replace t.trees id tree;
                    Some (session_input t session tree))))
      (List.rev t.sessions_rev)
  in
  let prescriptions = Algorithm.step t.algorithm ~now inputs in
  List.iter
    (fun (p : Algorithm.prescription) ->
      let st = receiver_state t ~session:p.session ~node:p.receiver in
      if st.status <> Active then
        (* The snapshot (possibly stale) still lists a member the lease
           already removed; prescribing to it would undo the removal. *)
        t.lease_suppressed <- t.lease_suppressed + 1
      else if p.receiver = t.node then
        (* No self-suggestions; count separately so [suggestions_sent]
           reflects packets actually put on the wire. *)
        t.self_suppressed <- t.self_suppressed + 1
      else begin
        t.suggestions_sent <- t.suggestions_sent + 1;
        let seq =
          Protocol.next_seq t.proto_tx ~session:p.session ~node:p.receiver
        in
        (* A newer prescription supersedes whatever was still awaiting an
           ACK. *)
        cancel_pending t st;
        send_suggestion t ~session:p.session ~receiver:p.receiver
          ~level:p.level ~seq;
        if t.params.reliable_prescriptions then
          arm_retransmit t st ~session:p.session ~receiver:p.receiver ~seq
            ~level:p.level ~attempt:0
      end)
    prescriptions;
  (* Federated leaf: one fixed-size per-session summary to the parent
     per interval, for every session this interval's algorithm run saw —
     a liveness beat. The parent's state is one slot per
     (session, domain) — O(domains) however many receivers sit here. *)
  match t.federation with
  | None -> ()
  | Some leaf ->
      List.iter
        (fun (input : Algorithm.session_input) ->
          t.summaries_sent <- t.summaries_sent + 1;
          Federation.send_summary leaf ~network:t.network ~src:t.node
            ~session:input.Algorithm.id)
        inputs

let start t =
  t.running <- true;
  if t.was_stopped then begin
    t.was_stopped <- false;
    (* restart of a federated leaf: rebase the summary stream so the
       parent admits the new incarnation past its old high-water seq *)
    Option.iter Federation.rebase t.federation
  end;
  Option.iter Probe_discovery.start t.probe;
  if t.task = None then begin
    let sim = Net.Network.sim t.network in
    t.task <-
      Some (Sim.every sim ~period:t.params.interval (fun () -> run_interval t))
  end

let stop t =
  t.running <- false;
  t.was_stopped <- true;
  Option.iter Probe_discovery.stop t.probe;
  Hashtbl.iter (fun _ st -> cancel_pending t st) t.receivers;
  match t.task with
  | Some h ->
      Sim.cancel (Net.Network.sim t.network) h;
      t.task <- None
  | None -> ()

let running t = t.running
let reports_received t = t.reports_received
let suggestions_sent t = t.suggestions_sent
let self_suppressed t = t.self_suppressed
let lease_suppressed t = t.lease_suppressed
let summaries_sent t = t.summaries_sent
let receiver_state_entries t = Hashtbl.length t.receivers
let invalid_snapshots t = t.invalid_snapshots
let intervals_run t = t.intervals_run
let skipped_no_snapshot t = t.skipped_no_snapshot
let evictions t = t.evictions
let readmissions t = t.readmissions
let retransmits t = t.retransmits
let give_ups t = t.give_ups
let stale_rejected t = t.stale_rejected
let acks_received t = t.acks_received

let receiver_active t ~session ~node =
  match Hashtbl.find_opt t.receivers (session, node) with
  | None -> false
  | Some st -> st.status = Active

(* Hand a receiver back after a failover window: drop it from the lease
   book and per-receiver state so this controller stops prescribing to
   it the moment its home leaf rejoins — the no-double-prescribing half
   of the rejoin contract. The protocol seq spaces are deliberately
   kept: they must never rewind, or a later failover to the same target
   would have its first suggestions rejected as stale. *)
let forget_receiver t ~session ~receiver =
  (match Int_table.find t.known session with
  | known -> Util.Bitset.remove known receiver
  | exception Not_found -> ());
  match Hashtbl.find_opt t.receivers (session, receiver) with
  | None -> ()
  | Some st ->
      cancel_pending t st;
      Hashtbl.remove t.receivers (session, receiver)
