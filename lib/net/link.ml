module Sim = Engine.Sim
module Time = Engine.Time

let no_deliver (_ : Packet.t) = failwith "Link: deliver callback not installed"

type stage = Ser | Prop

(* One in-flight transmission. The cell carries the per-hop state the
   old implementation packed into two closures (serialization, then
   propagation): the packet handle, the epoch at which it entered
   service, and which leg it is on. Its reusable timer is created once,
   when the cell first enters the pool, so a steady-state hop allocates
   nothing — the cell flips from [Ser] to [Prop] in place and re-arms
   the same event record. Cells are recycled through a free list; the
   pool only grows when the number of simultaneously in-flight packets
   on this link exceeds its previous maximum. *)
type cell = {
  mutable pkt : Packet.t;
  mutable cepoch : int;
  mutable stage : stage;
  mutable tmr : Sim.timer;
  mutable next_free : cell option;
}

type t = {
  sim : Sim.t;
  arena : Packet.arena;
  src : Addr.node_id;
  dst : Addr.node_id;
  bandwidth_bps : float;
  prop_delay : Time.span;
  queue : Queue_discipline.t;
  mutable deliver : Packet.t -> unit;
  mutable busy : bool;
  mutable up : bool;
  (* Bumped on every failure; in-flight cells hold the epoch at which
     they were armed and become no-ops (counted as fault drops for the
     propagation leg) if the link failed meanwhile. *)
  mutable epoch : int;
  mutable free : cell option;
  mutable pool_cells : int;  (* cells ever created; for tests of reuse *)
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable fault_drops : int;
  (* Memoized serialization span for the last packet size seen: traffic is
     dominated by one data-packet size, so this skips the float division
     on almost every transmission. *)
  mutable ser_size : int;
  mutable ser_span : Time.span;
}

let create ~sim ~arena ~src ~dst ~bandwidth_bps ~prop_delay ~queue =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth <= 0";
  {
    sim;
    arena;
    src;
    dst;
    bandwidth_bps;
    prop_delay;
    queue;
    deliver = no_deliver;
    busy = false;
    up = true;
    epoch = 0;
    free = None;
    pool_cells = 0;
    tx_packets = 0;
    tx_bytes = 0;
    fault_drops = 0;
    ser_size = -1;
    ser_span = Time.span_of_sec 0;
  }

let set_deliver t f = t.deliver <- f

let serialization_span t ~size =
  if size <> t.ser_size then begin
    t.ser_size <- size;
    t.ser_span <-
      Time.span_of_sec_f (float_of_int (size * 8) /. t.bandwidth_bps)
  end;
  t.ser_span

let release t c =
  c.pkt <- Packet.none;
  c.next_free <- t.free;
  t.free <- Some c

let rec acquire t =
  match t.free with
  | Some c ->
      t.free <- c.next_free;
      c.next_free <- None;
      c
  | None ->
      let c =
        { pkt = Packet.none; cepoch = 0; stage = Ser;
          tmr = Sim.timer t.sim ignore; next_free = None }
      in
      c.tmr <- Sim.timer t.sim (fun () -> fire t c);
      t.pool_cells <- t.pool_cells + 1;
      c

and transmit t pkt =
  t.busy <- true;
  let c = acquire t in
  c.pkt <- pkt;
  c.cepoch <- t.epoch;
  c.stage <- Ser;
  Sim.arm_after t.sim c.tmr (serialization_span t ~size:(Packet.size t.arena pkt))

and fire t c =
  match c.stage with
  | Ser ->
      if t.epoch <> c.cepoch then begin
        (* The link failed mid-serialization; the packet (already counted
           lost by [set_up]) and this firing are void. *)
        Packet.free t.arena c.pkt;
        release t c
      end
      else begin
        t.tx_packets <- t.tx_packets + 1;
        t.tx_bytes <- t.tx_bytes + Packet.size t.arena c.pkt;
        (* Same cell, same timer: the serialization leg becomes the
           propagation leg in place. The arm precedes the poll so the
           arrival keeps a lower [seq] than the next packet's
           serialization, exactly as the closure pipeline scheduled. *)
        c.stage <- Prop;
        Sim.arm_after t.sim c.tmr t.prop_delay;
        let next = Queue_discipline.poll t.queue in
        if next <> Packet.none then transmit t next else t.busy <- false
      end
  | Prop ->
      let pkt = c.pkt in
      let live = t.epoch = c.cepoch in
      release t c;
      if live then t.deliver pkt
      else begin
        Packet.free t.arena pkt;
        t.fault_drops <- t.fault_drops + 1
      end

(* [send] consumes the packet on every path: delivered downstream,
   queued, or dropped (and then freed here or by the queue). *)
let send t pkt =
  if not t.up then begin
    Packet.free t.arena pkt;
    t.fault_drops <- t.fault_drops + 1
  end
  else if t.busy then begin
    if not (Queue_discipline.offer t.queue pkt) then Packet.free t.arena pkt
  end
  else transmit t pkt

let set_up t up =
  if up then t.up <- true
  else if t.up then begin
    t.up <- false;
    t.epoch <- t.epoch + 1;
    (* The in-service packet and everything queued behind it are lost;
       in-propagation packets are counted when their arrival event finds
       the stale epoch. *)
    if t.busy then begin
      t.fault_drops <- t.fault_drops + 1;
      t.busy <- false
    end;
    let rec drain () =
      let pkt = Queue_discipline.poll t.queue in
      if pkt <> Packet.none then begin
        Packet.free t.arena pkt;
        t.fault_drops <- t.fault_drops + 1;
        drain ()
      end
    in
    drain ()
  end

let is_up t = t.up

let src t = t.src
let dst t = t.dst
let bandwidth_bps t = t.bandwidth_bps
let prop_delay t = t.prop_delay
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
let fault_drops t = t.fault_drops
let drops t = Queue_discipline.drops t.queue
let early_drops t = Queue_discipline.early_drops t.queue
let queue_length t = Queue_discipline.length t.queue
let busy t = t.busy
let pool_cells t = t.pool_cells
