module Sim = Engine.Sim
module Time = Engine.Time

type Net.Packet.payload +=
  | Domain_summary of {
      domain : int;
      session : int;
      seq : int;
    }

(* A summary is sized as a per-domain report, whatever the parent reads
   of it: the control traffic a run measures includes these bytes. *)
let summary_size = 56

type leaf = {
  parent : Net.Addr.node_id;
  domain_id : int;
  mutable next_seq : int;
}

let leaf ~parent ~domain_id =
  if domain_id < 0 then invalid_arg "Federation.leaf: negative domain_id";
  { parent; domain_id; next_seq = 0 }

(* Latest summary for one (session, domain) pair. Overwritten in place:
   the parent's footprint is exactly one slot per pair, independent of
   how many receivers live behind the leaf. *)
type slot = {
  mutable seq : int;
  mutable updated_at : Time.t;
}

type parent = {
  network : Net.Network.t;
  slots : (int * int, slot) Hashtbl.t;  (* (session, domain) -> latest *)
  mutable summaries_received : int;
  mutable stale_dropped : int;
  (* Failover state — all inert until [start_failover] arms the
     monitor. *)
  degraded : (int, unit) Hashtbl.t;  (* domains currently degraded *)
  monitor_scratch : (int, Time.t) Hashtbl.t;
      (* tick-lived freshest-summary-per-domain map, cleared and refilled
         on every monitor firing rather than reallocated *)
  mutable rehome_sent : (unit -> int) option;
  mutable rehome_last : int;
  mutable monitor : Sim.handle option;
  mutable on_degraded : (domain:int -> unit) option;
  mutable on_rejoined : (domain:int -> unit) option;
  mutable failovers : int;
  mutable rejoins : int;
  mutable rehomed_prescriptions : int;
}

(* Prescriptions the re-home target issued while at least one domain was
   degraded. Sampled as a counter delta at every monitor tick and at
   every rejoin, so the attribution window closes with the degradation. *)
let sample_rehome t =
  match t.rehome_sent with
  | None -> ()
  | Some sent ->
      let cur = sent () in
      if Hashtbl.length t.degraded > 0 then
        t.rehomed_prescriptions <-
          t.rehomed_prescriptions + (cur - t.rehome_last);
      t.rehome_last <- cur

let note_alive t ~domain =
  if Hashtbl.mem t.degraded domain then begin
    sample_rehome t;
    Hashtbl.remove t.degraded domain;
    t.rejoins <- t.rejoins + 1;
    match t.on_rejoined with Some f -> f ~domain | None -> ()
  end

let on_summary t ~domain ~session ~seq =
  t.summaries_received <- t.summaries_received + 1;
  let now = Sim.now (Net.Network.sim t.network) in
  match Hashtbl.find_opt t.slots (session, domain) with
  | Some slot when seq <= slot.seq ->
      (* A reroute can reorder unicast summaries; the newer picture
         already landed, so the straggler is dropped rather than rolling
         the domain's state backwards. A leaf's seq survives its
         controller's stop and start, so a summary sent before a restart
         is a straggler here too. *)
      t.stale_dropped <- t.stale_dropped + 1
  | Some slot ->
      slot.seq <- seq;
      slot.updated_at <- now;
      note_alive t ~domain
  | None ->
      Hashtbl.add t.slots (session, domain) { seq; updated_at = now };
      note_alive t ~domain

let create_parent ~network ~node =
  let t =
    {
      network;
      slots = Hashtbl.create 16;
      summaries_received = 0;
      stale_dropped = 0;
      degraded = Hashtbl.create 8;
      monitor_scratch = Hashtbl.create 8;
      rehome_sent = None;
      rehome_last = 0;
      monitor = None;
      on_degraded = None;
      on_rejoined = None;
      failovers = 0;
      rejoins = 0;
      rehomed_prescriptions = 0;
    }
  in
  let arena = Net.Network.arena network in
  Net.Network.add_local_handler network node (fun pkt ->
      if Net.Packet.is_data arena pkt then ()
      else
      match Net.Packet.payload arena pkt with
      | Domain_summary { domain; session; seq } ->
          on_summary t ~domain ~session ~seq
      | _ -> ());
  t

let set_rehome_counter t sent =
  t.rehome_sent <- Some sent;
  t.rehome_last <- sent ()

let start_failover t ~check_period ~silence ?on_degraded ?on_rejoined () =
  if t.monitor <> None then
    invalid_arg "Federation.start_failover: monitor already running";
  if check_period <= 0 then
    invalid_arg "Federation.start_failover: non-positive check_period";
  if silence <= 0 then
    invalid_arg "Federation.start_failover: non-positive silence";
  t.on_degraded <- on_degraded;
  t.on_rejoined <- on_rejoined;
  let sim = Net.Network.sim t.network in
  t.monitor <-
    Some
      (Sim.every sim ~period:check_period (fun () ->
           sample_rehome t;
           let now = Sim.now sim in
           (* freshest summary per domain, over all its sessions *)
           let latest = t.monitor_scratch in
           Hashtbl.clear latest;
           Hashtbl.iter
             (fun (_, domain) slot ->
               match Hashtbl.find_opt latest domain with
               | Some ts when Time.(ts >= slot.updated_at) -> ()
               | _ -> Hashtbl.replace latest domain slot.updated_at)
             t.slots;
           Hashtbl.fold (fun d ts acc -> (d, ts) :: acc) latest []
           |> List.sort compare
           |> List.iter (fun (domain, ts) ->
                  if
                    (not (Hashtbl.mem t.degraded domain))
                    && Time.(add ts silence < now)
                  then begin
                    (* the lease on the summary stream expired: the
                       domain's leaf has gone silent *)
                    Hashtbl.replace t.degraded domain ();
                    t.failovers <- t.failovers + 1;
                    match t.on_degraded with
                    | Some f -> f ~domain
                    | None -> ()
                  end)))

let stop_failover t =
  match t.monitor with
  | Some h ->
      Sim.cancel (Net.Network.sim t.network) h;
      t.monitor <- None
  | None -> ()

let degraded_now t = Hashtbl.length t.degraded
let summaries_received t = t.summaries_received
let stale_dropped t = t.stale_dropped
let state_entries t = Hashtbl.length t.slots
let failovers t = t.failovers
let rejoins t = t.rejoins
let rehomed_prescriptions t = t.rehomed_prescriptions

let send_summary leaf ~network ~src ~session =
  let seq = leaf.next_seq in
  leaf.next_seq <- seq + 1;
  Net.Network.originate network ~src ~dst:(Net.Addr.Unicast leaf.parent)
    ~size:summary_size
    ~payload:(Domain_summary { domain = leaf.domain_id; session; seq })
