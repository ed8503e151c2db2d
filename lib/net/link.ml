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
  discipline : Queue_discipline.spec;
  (* Built by the first [send] that finds the link busy. Until then the
     queue would hold nothing and have counted nothing, so [None] reads
     exactly as an untouched queue does; most links never need one. *)
  mutable queue : Queue_discipline.t option;
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

let create ~sim ~arena ~src ~dst ~bandwidth_bps ~prop_delay ~discipline =
  (* A finite bandwidth also keeps the service time that a queue built
     on first wait derives from it positive. *)
  if not (bandwidth_bps > 0.0 && bandwidth_bps < Float.infinity) then
    invalid_arg "Link.create: bandwidth not positive and finite";
  (match Queue_discipline.validate_spec discipline with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Link.create: " ^ msg));
  {
    sim;
    arena;
    src;
    dst;
    bandwidth_bps;
    prop_delay;
    discipline;
    queue = None;
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

(* Only RED draws from its stream, so only a RED queue splits one. A
   split does not advance its parent and nothing draws from the root, so
   the stream does not depend on when the queue is built. *)
let build_queue t =
  let rng =
    match t.discipline with
    | Queue_discipline.Red _ ->
        Some (Sim.rng t.sim ~label:(Printf.sprintf "queue-%d-%d" t.src t.dst))
    | Drop_tail _ | Priority _ -> None
  in
  let q =
    Queue_discipline.create t.discipline ~arena:t.arena ?rng
      ~clock:(fun () -> Time.to_sec_f (Sim.now t.sim))
      ~service_time_s:
        (8.0 *. float_of_int Packet.data_size /. t.bandwidth_bps)
  in
  t.queue <- Some q;
  q

(* Head of the queue, [Packet.none] when it is empty or not built. *)
let poll t =
  match t.queue with Some q -> Queue_discipline.poll q | None -> Packet.none

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
        let next = poll t in
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
    let q = match t.queue with Some q -> q | None -> build_queue t in
    if not (Queue_discipline.offer q pkt) then Packet.free t.arena pkt
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
      let pkt = poll t in
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
let queue_count f t = match t.queue with Some q -> f q | None -> 0
let drops = queue_count Queue_discipline.drops
let early_drops = queue_count Queue_discipline.early_drops
let queue_length = queue_count Queue_discipline.length
let busy t = t.busy
let pool_cells t = t.pool_cells
