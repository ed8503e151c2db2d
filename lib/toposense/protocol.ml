module Time = Engine.Time

type Net.Packet.payload +=
  | Ack of { session : int; receiver : Net.Addr.node_id; seq : int }

let ack_size = 40

type tx = (int * Net.Addr.node_id, int) Hashtbl.t

let create_tx () : tx = Hashtbl.create 64

let last_sent (t : tx) ~session ~node =
  Option.value ~default:0 (Hashtbl.find_opt t (session, node))

let next_seq (t : tx) ~session ~node =
  let seq = last_sent t ~session ~node + 1 in
  Hashtbl.replace t (session, node) seq;
  seq

type rx = (int * Net.Addr.node_id, int) Hashtbl.t

type verdict = Fresh | Duplicate | Stale

let create_rx () : rx = Hashtbl.create 64

let last_accepted (t : rx) ~session ~node =
  Option.value ~default:0 (Hashtbl.find_opt t (session, node))

let admit (t : rx) ~session ~node ~seq =
  let high = last_accepted t ~session ~node in
  if seq > high then begin
    Hashtbl.replace t (session, node) seq;
    Fresh
  end
  else if seq = high then Duplicate
  else Stale

let backoff_span ~rng ~attempt =
  let base =
    (* Doubling in integer ns overflows past attempt ~60; clamp the shift
       well before that. *)
    let shift = min attempt 30 in
    min Params.retransmit_max
      (Int.shift_left 1 shift * Params.retransmit_initial)
  in
  let jittered =
    Time.span_to_sec_f base *. Engine.Prng.uniform rng ~lo:0.5 ~hi:1.5
  in
  max 1 (Time.span_of_sec_f jittered)
