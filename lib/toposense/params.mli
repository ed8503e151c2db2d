(** TopoSense tuning parameters.

    The paper names the thresholds ([p_threshold], [eta_similar], the
    random back-off, the capacity re-estimation) but does not publish
    values. The values here are the interpretation documented in
    DESIGN.md Section 3. The record holds the settings that some run
    varies; the rest are constants, one value for every run. *)

type t = {
  interval : Engine.Time.span;
      (** period between TopoSense runs (T_{i+1} - T_i) *)
  capacity_reset_intervals : int;
      (** estimates are reset to infinity every this many intervals *)
  staleness : Engine.Time.span;
      (** age of the topology information served to the controller *)
  require_sustained_loss : bool;
      (** when true, the controller only treats loss as congestion
          evidence if the receiver flagged it sustained (two consecutive
          lossy windows) — the bursty-vs-sustained differentiation the
          paper's Section V calls for; default false *)
  lease_intervals : int;
      (** a receiver whose last report is older than this many TopoSense
          intervals is evicted from the controller (soft-state lease);
          its bandwidth share flows back to the survivors and it is
          re-admitted cleanly on its next report *)
  reliable_prescriptions : bool;
      (** when true, prescriptions are ACKed by receivers and the
          controller retransmits unACKed ones with exponential backoff
          ({!Protocol}); off by default so no-fault runs put exactly the
          paper's packets on the wire *)
  rlm_fallback : bool;
      (** when true, a receiver that has heard no valid prescription for
          {!suggestion_timeout_intervals} switches to a standalone
          RLM-style join-experiment machine (instead of the simpler
          legacy probe/shed watchdog) and resyncs when prescriptions
          resume; off by default to keep no-fault runs byte-identical *)
  prescribe_known_only : bool;
      (** when true, the controller only prescribes to receivers it has
          actually heard a report from (a per-session known-receiver
          bitset fed by report admission). At 10k–1M receivers only a
          sampled subset runs reporting agents; without this flag the
          controller would allocate per-receiver state and unicast
          suggestions to every tree member it can see in the snapshot,
          making its footprint O(receivers) instead of O(reporters).
          Off by default — paper-scale runs prescribe from the snapshot
          alone, byte-identical to earlier revisions *)
}

val default : t
(** interval 2 s, capacity reset every 15 intervals, staleness 0, no
    sustained-loss filter, lease 10 intervals, unreliable prescriptions,
    legacy watchdog fallback, prescriptions to all snapshot members
    (known-only off). *)

val validate : t -> (unit, string) result
(** Checks ranges: a positive interval, capacity reset and lease, and a
    non-negative staleness. The error names the field. *)

(** {1 Constants} *)

val report_interval : Engine.Time.span
(** 1 s: period of receiver RTCP-like reports. *)

val p_threshold : float
(** 0.03: loss rate above which a node is congested. *)

val p_high : float
(** 0.15: "loss rate is high" (Table I, leaf history 1). *)

val p_very_high : float
(** 0.30: "loss is very high" (Table I, Greater rows). *)

val eta_similar : float
(** 0.7: fraction of children that must have similar loss for an
    internal node to be congested. *)

val similar_band : float
(** 0.25: relative band around the mean child loss counted as
    "similar". *)

val bw_equal_tolerance : float
(** 0.10: relative tolerance for the BW-equality comparison. *)

val capacity_growth : float
(** 0.02: per-interval multiplicative inflation of a capacity
    estimate. *)

val backoff_min : Engine.Time.span
(** 10 s: shortest random back-off. *)

val backoff_max : Engine.Time.span
(** 30 s: longest random back-off. *)

val suggestion_timeout_intervals : int
(** 3: a receiver goes unilateral after this many silent intervals. *)

val deaf_period : Engine.Time.span
(** 2.5 s: after a receiver drops a layer, loss is not reported for this
    long: the residual loss from queue drain and IGMP leave latency
    would otherwise read as fresh congestion and cascade the drop (the
    deaf-period idea is RLM's). *)

val retransmit_initial : Engine.Time.span
(** 250 ms: first retransmission delay of a reliable prescription
    (doubles per attempt). *)

val retransmit_max : Engine.Time.span
(** 8 s: cap on the retransmission delay. *)

val retransmit_attempts : int
(** 6: give up on a prescription after this many retransmissions. *)
