module Sim = Engine.Sim
module Time = Engine.Time

type t = {
  network : Network.t;
  rng : Engine.Prng.t;
  mutable link_downs : int;
  mutable link_ups : int;
  mutable control_dropped : int;
  mutable control_delayed : int;
  (* Crash-fault state, one slot per node. [crash_epoch] only ever grows:
     a scheduled link restore captures both endpoints' epochs and becomes
     a no-op if either has moved — the same stale-invalidation trick
     [Link] plays with its drain epochs. *)
  crashed : bool array;
  crash_epoch : int array;
  claimed : (Addr.node_id * Addr.node_id) list array;
      (* per crashed node: the links its crash took down, so recovery
         restores exactly those and leaves independently-failed links
         alone *)
  mutable node_crashes : int;
  mutable node_recoveries : int;
  mutable crash_drops : int;
  mutable crash_link_downs : int;
  mutable crash_link_ups : int;
  mutable crash_observers : (Addr.node_id -> up:bool -> unit) list;
}

let create ~network () =
  let n = Network.node_count network in
  {
    network;
    rng = Sim.rng (Network.sim network) ~label:"net-faults";
    link_downs = 0;
    link_ups = 0;
    control_dropped = 0;
    control_delayed = 0;
    crashed = Array.make n false;
    crash_epoch = Array.make n 0;
    claimed = Array.make n [];
    node_crashes = 0;
    node_recoveries = 0;
    crash_drops = 0;
    crash_link_downs = 0;
    crash_link_ups = 0;
    crash_observers = [];
  }

let node_is_crashed t node = t.crashed.(node)

let link_down t ~a ~b =
  if Network.link_is_up t.network ~a ~b then begin
    t.link_downs <- t.link_downs + 1;
    Network.set_link_up t.network ~a ~b false
  end

let link_up t ~a ~b =
  if
    (not t.crashed.(a))
    && (not t.crashed.(b))
    && not (Network.link_is_up t.network ~a ~b)
  then begin
    t.link_ups <- t.link_ups + 1;
    Network.set_link_up t.network ~a ~b true
  end

(* Flap timers capture both endpoints' crash epochs at scheduling time; a
   crash between then and the fire time voids the timer, so a stale
   [set_up true] cannot resurrect a crashed node's link (and a stale down
   cannot re-fail a link the crash recovery just restored). *)
let schedule_link_down t ~at ~a ~b =
  let ea = t.crash_epoch.(a) and eb = t.crash_epoch.(b) in
  ignore
    (Sim.schedule_at (Network.sim t.network) at (fun () ->
         if t.crash_epoch.(a) = ea && t.crash_epoch.(b) = eb then
           link_down t ~a ~b))

let schedule_link_up t ~at ~a ~b =
  let ea = t.crash_epoch.(a) and eb = t.crash_epoch.(b) in
  ignore
    (Sim.schedule_at (Network.sim t.network) at (fun () ->
         if t.crash_epoch.(a) = ea && t.crash_epoch.(b) = eb then
           link_up t ~a ~b))

let schedule_flap t ~a ~b ~down_at ~up_at =
  if Time.(up_at <= down_at) then
    invalid_arg "Faults.schedule_flap: up_at <= down_at";
  schedule_link_down t ~at:down_at ~a ~b;
  schedule_link_up t ~at:up_at ~a ~b

let add_crash_observer t f = t.crash_observers <- t.crash_observers @ [ f ]

let crash_node t ~node =
  if not t.crashed.(node) then begin
    t.crashed.(node) <- true;
    t.crash_epoch.(node) <- t.crash_epoch.(node) + 1;
    let before = Network.fault_drops t.network in
    let claimed = ref [] in
    for iface = 0 to Network.iface_count t.network node - 1 do
      let nbr = Network.neighbor t.network ~node ~iface in
      if Network.link_is_up t.network ~a:node ~b:nbr then begin
        claimed := (node, nbr) :: !claimed;
        t.crash_link_downs <- t.crash_link_downs + 1;
        Network.set_link_up t.network ~a:node ~b:nbr false
      end
    done;
    t.claimed.(node) <- List.rev !claimed;
    t.crash_drops <- t.crash_drops + (Network.fault_drops t.network - before);
    t.node_crashes <- t.node_crashes + 1;
    List.iter (fun f -> f node ~up:false) t.crash_observers
  end

let recover_node t ~node =
  if t.crashed.(node) then begin
    t.crashed.(node) <- false;
    List.iter
      (fun (a, b) ->
        if t.crashed.(b) then
          (* the far end is still down: hand the claim over, so the
             crash-owned link is restored when the LAST crashed endpoint
             recovers rather than leaking as permanently dead *)
          t.claimed.(b) <- (b, a) :: t.claimed.(b)
        else if not (Network.link_is_up t.network ~a ~b) then begin
          t.crash_link_ups <- t.crash_link_ups + 1;
          Network.set_link_up t.network ~a ~b true
        end)
      t.claimed.(node);
    t.claimed.(node) <- [];
    t.node_recoveries <- t.node_recoveries + 1;
    List.iter (fun f -> f node ~up:true) t.crash_observers
  end

let schedule_crash t ~at ~node =
  ignore
    (Sim.schedule_at (Network.sim t.network) at (fun () -> crash_node t ~node))

let schedule_recover t ~at ~node =
  ignore
    (Sim.schedule_at (Network.sim t.network) at (fun () ->
         recover_node t ~node))

(* The control-plane tamperer draws once per classified packet, so runs
   with [drop_fraction = 0] and no delay still consume the same stream —
   sweeping the fraction never re-seeds anything else. *)
let set_control_plane t ~classify ?(drop_fraction = 0.0) ?(delay_fraction = 0.0)
    ?(delay = Time.span_of_ms 0) () =
  if not (Float.is_finite drop_fraction && Float.is_finite delay_fraction) then
    invalid_arg "Faults.set_control_plane: non-finite fraction";
  if drop_fraction < 0.0 || drop_fraction > 1.0 then
    invalid_arg "Faults.set_control_plane: drop_fraction outside [0,1]";
  if delay_fraction < 0.0 || delay_fraction > 1.0 then
    invalid_arg "Faults.set_control_plane: delay_fraction outside [0,1]";
  if drop_fraction +. delay_fraction > 1.0 then
    invalid_arg "Faults.set_control_plane: drop_fraction + delay_fraction > 1";
  if delay < 0 then invalid_arg "Faults.set_control_plane: negative delay";
  Network.set_origination_filter t.network (fun pkt ->
      if not (classify pkt) then `Deliver
      else begin
        let u = Engine.Prng.float t.rng in
        if u < drop_fraction then begin
          t.control_dropped <- t.control_dropped + 1;
          `Drop
        end
        else if u < drop_fraction +. delay_fraction then begin
          t.control_delayed <- t.control_delayed + 1;
          `Delay delay
        end
        else `Deliver
      end)

let clear_control_plane t = Network.clear_origination_filter t.network

let link_downs t = t.link_downs
let link_ups t = t.link_ups

let control_dropped t = t.control_dropped
let control_delayed t = t.control_delayed
let node_crashes t = t.node_crashes
let node_recoveries t = t.node_recoveries
let crash_drops t = t.crash_drops
let crash_link_downs t = t.crash_link_downs
let crash_link_ups t = t.crash_link_ups
