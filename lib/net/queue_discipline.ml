type spec =
  | Drop_tail of { limit : int }
  | Red of {
      limit : int;
      min_th : float;
      max_th : float;
      max_p : float;
      wq : float;
    }
  | Priority of { limit : int }

let default_red ~limit =
  Red
    {
      limit;
      min_th = 0.25 *. float_of_int limit;
      max_th = 0.75 *. float_of_int limit;
      max_p = 0.1;
      wq = 0.002;
    }

let validate_spec = function
  | Drop_tail { limit } | Priority { limit } ->
      if limit <= 0 then Error "limit <= 0" else Ok ()
  | Red { limit; min_th; max_th; max_p; wq } ->
      if limit <= 0 then Error "limit <= 0"
      else if not (0.0 <= min_th && min_th < max_th) then
        Error "need 0 <= min_th < max_th"
      else if not (0.0 < max_p && max_p <= 1.0) then
        Error "max_p must be in (0,1]"
      else if not (0.0 < wq && wq <= 1.0) then Error "wq must be in (0,1]"
      else Ok ()

(* RED's own state. Only RED draws random numbers or reads the clock, so
   the other disciplines hold no stream and no clock. *)
type red = {
  rng : Engine.Prng.t;  (* drives the random early drops *)
  clock : unit -> float;  (* seconds; drives the idle decay *)
  service_s : float;  (* typical packet transmission time, seconds *)
  mutable avg : float;  (* EWMA of the queue length *)
  mutable idle_since : float;  (* clock time the queue drained; -1 = busy *)
}

type t = {
  spec : spec;
  red : red option;  (* [Some] exactly when [spec] is RED *)
  arena : Packet.arena;
  (* Fixed-capacity ring buffer of packet handles: capacity is the
     discipline's [limit], so enqueue and poll are O(1) with no
     allocation per operation. [Packet.none] fills vacated slots. *)
  buf : Packet.t array;
  mutable head : int;
  mutable len : int;
  mutable drops : int;
  mutable early_drops : int;
}

let limit_of = function
  | Drop_tail { limit } | Priority { limit } | Red { limit; _ } -> limit

let create ?(clock = fun () -> 0.0) ?(service_time_s = 1e-3) ?rng spec ~arena =
  (match validate_spec spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Queue_discipline.create: " ^ msg));
  if service_time_s <= 0.0 then
    invalid_arg "Queue_discipline.create: service_time_s <= 0";
  let red =
    match (spec, rng) with
    | Red _, Some rng ->
        Some
          { rng; clock; service_s = service_time_s; avg = 0.0;
            idle_since = -1.0 }
    | Red _, None -> invalid_arg "Queue_discipline.create: RED needs ~rng"
    | (Drop_tail _ | Priority _), _ -> None
  in
  {
    spec;
    red;
    arena;
    buf = Array.make (limit_of spec) Packet.none;
    head = 0;
    len = 0;
    drops = 0;
    early_drops = 0;
  }

let spec t = t.spec

let slot t i =
  let j = t.head + i in
  let cap = Array.length t.buf in
  if j >= cap then j - cap else j

let enqueue t pkt =
  t.buf.(slot t t.len) <- pkt;
  t.len <- t.len + 1;
  match t.red with Some r -> r.idle_since <- -1.0 | None -> ()

(* Media importance: the base layer matters most; anything that is not
   media (reports, suggestions, probes) outranks all media. Smaller =
   more important. *)
let importance t pkt =
  if Packet.is_data t.arena pkt then Packet.layer t.arena pkt else -1

(* A rejected arrival is NOT freed here: [offer] returning [false] means
   the caller still owns the packet. A packet evicted from the ring by a
   priority drop, however, is owned by the queue and freed in place. *)
let offer_priority t limit pkt =
  if t.len < limit then begin
    enqueue t pkt;
    true
  end
  else begin
    (* Single pass over the ring: find the queued packet with the largest
       importance value, the arrival being the initial candidate; evict
       it only if some queued packet is strictly less important than the
       arrival. *)
    let worst_idx = ref (-1) in
    let worst_imp = ref (importance t pkt) in
    for i = 0 to t.len - 1 do
      let imp = importance t t.buf.(slot t i) in
      if imp > !worst_imp then begin
        worst_imp := imp;
        worst_idx := i
      end
    done;
    t.drops <- t.drops + 1;
    if !worst_idx < 0 then false
    else begin
      Packet.free t.arena t.buf.(slot t !worst_idx);
      (* Close the gap, keeping FIFO order of the survivors. *)
      for i = !worst_idx to t.len - 2 do
        t.buf.(slot t i) <- t.buf.(slot t (i + 1))
      done;
      t.buf.(slot t (t.len - 1)) <- Packet.none;
      t.len <- t.len - 1;
      enqueue t pkt;
      true
    end
  end

let offer_red t r ~limit ~min_th ~max_th ~max_p ~wq pkt =
  (* Floyd/Jacobson idle decay: while the queue sat empty the EWMA should
     have decayed once per (virtual) packet-transmission time. *)
  if t.len = 0 && r.idle_since >= 0.0 then begin
    let now = r.clock () in
    let m = (now -. r.idle_since) /. r.service_s in
    if m > 0.0 then begin
      r.avg <- r.avg *. ((1.0 -. wq) ** m);
      r.idle_since <- now
    end
  end;
  r.avg <- ((1.0 -. wq) *. r.avg) +. (wq *. float_of_int t.len);
  if t.len >= limit then begin
    t.drops <- t.drops + 1;
    false
  end
  else if r.avg >= max_th then begin
    t.drops <- t.drops + 1;
    t.early_drops <- t.early_drops + 1;
    false
  end
  else if r.avg >= min_th then begin
    let p = max_p *. (r.avg -. min_th) /. (max_th -. min_th) in
    if Engine.Prng.bool r.rng ~p then begin
      t.drops <- t.drops + 1;
      t.early_drops <- t.early_drops + 1;
      false
    end
    else begin
      enqueue t pkt;
      true
    end
  end
  else begin
    enqueue t pkt;
    true
  end

let offer t pkt =
  match (t.spec, t.red) with
  | Drop_tail { limit }, _ ->
      if t.len >= limit then begin
        t.drops <- t.drops + 1;
        false
      end
      else begin
        enqueue t pkt;
        true
      end
  | Priority { limit }, _ -> offer_priority t limit pkt
  | Red { limit; min_th; max_th; max_p; wq }, Some r ->
      offer_red t r ~limit ~min_th ~max_th ~max_p ~wq pkt
  | Red _, None -> assert false (* [create] gives RED its state *)

let poll t =
  if t.len = 0 then Packet.none
  else begin
    let pkt = t.buf.(t.head) in
    t.buf.(t.head) <- Packet.none;
    t.head <- (if t.head + 1 = Array.length t.buf then 0 else t.head + 1);
    t.len <- t.len - 1;
    if t.len = 0 then begin
      (match t.red with Some r -> r.idle_since <- r.clock () | None -> ());
      t.head <- 0
    end;
    pkt
  end

let length t = t.len
let drops t = t.drops
let early_drops t = t.early_drops
