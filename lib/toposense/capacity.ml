type entry = {
  mutable estimate_bps : float;  (* infinity = unknown *)
  mutable intervals_since_set : int;
  observed_bps : float array;  (* ring of recent throughputs *)
  mutable observed_idx : int;
  mutable pooled : (int * float * int) list;
      (* this interval's evidence, newest session first; [] once observed *)
  mutable dest : int;  (* bit 0: some session internal; bit 1: self-congested *)
}

type t = {
  params : Params.t;
  entries : entry Int_table.t;  (* keyed by {!Tree.edge} *)
}

let create ~params = { params; entries = Int_table.create 32 }

(* One interval's evidence for one physical edge. *)
type link_obs = {
  sessions : (int * float * int) list;  (* newest session first *)
  dest_internal : bool;
  dest_self_congested : bool;
}

let entry t ~edge =
  match Int_table.find t.entries edge with
  | e -> e
  | exception Not_found ->
      let e =
        {
          estimate_bps = infinity;
          intervals_since_set = 0;
          observed_bps = Array.make 3 0.0;
          observed_idx = 0;
          pooled = [];
          dest = 0;
        }
      in
      Int_table.add t.entries edge e;
      e

let pool e ~session ~loss ~bytes ~internal ~self_congested =
  e.pooled <- (session, loss, bytes) :: e.pooled;
  if internal then
    e.dest <- e.dest lor (if self_congested then 3 else 1)

let observe t e ~interval_s obs =
  let total_bytes =
    List.fold_left (fun acc (_, _, b) -> acc + b) 0 obs.sessions
  in
  let usage_bps = float_of_int (total_bytes * 8) /. interval_s in
  (* Age the current estimate first. Ordinarily it inflates slowly
     (reported bytes lag transmissions); but when the traffic through the
     edge fills the estimate without any loss, the estimate is provably
     too low — an artifact of measuring during someone else's congestion
     or of lost reports — and we let it recover quickly rather than wait
     for the periodic reset. *)
  if Float.is_finite e.estimate_bps then begin
    e.intervals_since_set <- e.intervals_since_set + 1;
    if e.intervals_since_set >= t.params.capacity_reset_intervals then begin
      e.estimate_bps <- infinity;
      e.intervals_since_set <- 0
    end
    else begin
      let loss_free =
        obs.sessions <> []
        && List.for_all
             (fun (_, loss, _) -> loss <= Params.p_threshold)
             obs.sessions
      in
      let growth =
        if loss_free && usage_bps >= 0.8 *. e.estimate_bps then
          Float.max Params.capacity_growth 0.15
        else Params.capacity_growth
      in
      e.estimate_bps <- e.estimate_bps *. (1.0 +. growth)
    end
  end;
  (match obs.sessions with
  | [] -> ()
  | [ _ ] when not obs.dest_internal ->
      (* A single-session last-hop edge: the bytes its receiver reports
         are capped by that receiver's *subscription*, not by the link,
         so a loss episode here would pin a fast edge at an artificially
         low value and trap the receiver below its optimum. Loss at a
         pure leaf is attributed upstream, where sibling correlation can
         localize it. (Several sessions losing together at the same leaf
         IS localizing evidence — their summed bytes measure the link —
         so the multi-session case falls through to the pin logic.) *)
      ()
  | sessions ->
      let all_lossy =
        List.for_all (fun (_, loss, _) -> loss > Params.p_threshold) sessions
      in
      let overall_loss =
        (* Bytes-weighted mean of per-session losses at the destination;
           the per-link aggregate the paper's condition (1) asks for. *)
        if total_bytes = 0 then 0.0
        else
          List.fold_left
            (fun acc (_, loss, b) -> acc +. (loss *. float_of_int b))
            0.0 sessions
          /. float_of_int total_bytes
      in
      let localized =
        (* Loss at the destination only localizes to THIS edge when its
           children lose in correlation (self-congestion), or when every
           one of several sessions crossing it is lossy (the paper's
           condition 2, which one session alone cannot satisfy
           meaningfully: a lone lossy session pins every edge on its own
           path, capping itself at whatever throughput it happened to
           have and handing the bandwidth to its competitors). *)
        obs.dest_self_congested || List.length sessions >= 2
      in
      if
        localized && all_lossy
        && overall_loss > Params.p_threshold
        && total_bytes > 0
      then begin
        (* Windows measured during a loss episode undershoot the link
           rate (onset straddling, staggered receiver descents), so pin
           at the best throughput demonstrated over the last few
           intervals rather than this window alone. *)
        e.estimate_bps <- Array.fold_left Float.max usage_bps e.observed_bps;
        e.intervals_since_set <- 0
      end);
  e.observed_bps.(e.observed_idx) <- usage_bps;
  e.observed_idx <- (e.observed_idx + 1) mod Array.length e.observed_bps

let observe_pooled t e ~interval_s =
  if interval_s <= 0.0 then
    invalid_arg "Capacity.observe_pooled: interval <= 0";
  match e.pooled with
  | [] -> ()
  | sessions ->
      let obs =
        {
          sessions;
          dest_internal = e.dest land 1 <> 0;
          dest_self_congested = e.dest land 2 <> 0;
        }
      in
      e.pooled <- [];
      e.dest <- 0;
      observe t e ~interval_s obs

let estimate e = e.estimate_bps

let estimate_bps t ~edge =
  match Int_table.find t.entries edge with
  | e -> e.estimate_bps
  | exception Not_found -> infinity

let known_edges t =
  Int_table.fold
    (fun edge e acc -> if Float.is_finite e.estimate_bps then edge :: acc else acc)
    t.entries []
  |> List.sort Int.compare
