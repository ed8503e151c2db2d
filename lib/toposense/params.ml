module Time = Engine.Time

type t = {
  interval : Time.span;
  capacity_reset_intervals : int;
  staleness : Time.span;
  require_sustained_loss : bool;
  lease_intervals : int;
  reliable_prescriptions : bool;
  rlm_fallback : bool;
  prescribe_known_only : bool;
}

let default =
  {
    interval = Time.span_of_sec 2;
    capacity_reset_intervals = 15;
    staleness = 0;
    require_sustained_loss = false;
    lease_intervals = 10;
    reliable_prescriptions = false;
    rlm_fallback = false;
    prescribe_known_only = false;
  }

let report_interval = Time.span_of_sec 1
let p_threshold = 0.03
let p_high = 0.15
let p_very_high = 0.30
let eta_similar = 0.7
let similar_band = 0.25
let bw_equal_tolerance = 0.10
let capacity_growth = 0.02
let backoff_min = Time.span_of_sec 10
let backoff_max = Time.span_of_sec 30
let suggestion_timeout_intervals = 3
let deaf_period = Time.span_of_ms 2_500
let retransmit_initial = Time.span_of_ms 250
let retransmit_max = Time.span_of_sec 8
let retransmit_attempts = 6

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.interval <= 0 then err "interval must be positive"
  else if t.capacity_reset_intervals <= 0 then
    err "capacity_reset_intervals must be positive"
  else if t.staleness < 0 then err "staleness must be >= 0"
  else if t.lease_intervals <= 0 then err "lease_intervals must be positive"
  else Ok ()
