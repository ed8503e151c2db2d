(** Per-figure experiment runners.

    One function per table/figure of the paper's evaluation (Section IV).
    Each returns the rows the paper plots, ready for printing by the
    bench harness or the CLI; see EXPERIMENTS.md for paper-vs-measured
    commentary. Durations default to the paper's 1200 s and can be scaled
    down for quick runs.

    The grid sweeps (Figs. 6, 7, 8, 10) accept [?jobs] and fan their
    independent cells across that many domains via {!Sweep}; results are
    identical to the sequential run for any [jobs] (default 1). *)

type stability_row = {
  x : int;  (** receivers per set (Fig. 6) or sessions (Fig. 7) *)
  traffic : Experiment.traffic;
  max_changes : int;  (** most subscription changes by any receiver *)
  mean_gap_s : float;  (** mean seconds between that receiver's changes *)
}

val fig6 :
  ?duration:Engine.Time.t ->
  ?set_sizes:int list ->
  ?seed:int64 ->
  ?jobs:int ->
  unit ->
  stability_row list
(** Stability on Topology A under CBR, VBR P=3 and VBR P=6 (the rows run
    traffic-major). Defaults: 1200 s; set sizes 1, 2, 4, 8, 16. *)

val fig7 :
  ?duration:Engine.Time.t ->
  ?session_counts:int list ->
  ?seed:int64 ->
  ?jobs:int ->
  unit ->
  stability_row list
(** Stability on Topology B under CBR, VBR P=3 and VBR P=6. Defaults:
    1200 s; 1, 2, 4, 8, 16 sessions. *)

type fairness_row = {
  sessions : int;
  traffic : Experiment.traffic;
  dev_first_half : float;  (** mean relative deviation over 0–600 s *)
  dev_second_half : float;  (** over 600–1200 s *)
}

val fig8 :
  ?duration:Engine.Time.t ->
  ?session_counts:int list ->
  ?seed:int64 ->
  ?seeds:int64 list ->
  ?jobs:int ->
  unit ->
  fairness_row list
(** Inter-session fairness on Topology B under CBR, VBR P=3 and VBR P=6
    (deviation halves scale with [duration]). [seeds] (overriding
    [seed]) averages each row over several independent runs. *)

type series_point = {
  at_s : float;
  level : int;
  loss : float;
}

val fig9 :
  ?duration:Engine.Time.t ->
  ?window:float * float ->
  ?seed:int64 ->
  unit ->
  (int * series_point list) list
(** Per-session subscription/loss time series: 4 competing VBR (P=3)
    sessions on Topology B, sampled once per second inside [window]
    (default 300–360 s). *)

type staleness_row = {
  staleness_s : int;
  receivers_per_set : int;
  deviation : float;
}

val fig10 :
  ?duration:Engine.Time.t ->
  ?staleness_seconds:int list ->
  ?set_sizes:int list ->
  ?seed:int64 ->
  ?seeds:int64 list ->
  ?jobs:int ->
  unit ->
  staleness_row list
(** Impact of stale topology information on Topology A with VBR P=3.
    Defaults: staleness 2–18 s step 4; 1, 2, 4 receivers per set.
    [seeds] (overriding [seed]) averages each row over several runs. *)

type table1_row = {
  kind : Toposense.Decision.node_kind;
  history : int;
  bw : Toposense.Decision.bw_equality;
  action : Toposense.Decision.action;
}

val table1 : unit -> table1_row list
(** The full decision table, enumerated (3 BW classes x 8 histories x 2
    node kinds). *)

val pp_stability_row : Format.formatter -> stability_row -> unit
val pp_fairness_row : Format.formatter -> fairness_row -> unit
val pp_staleness_row : Format.formatter -> staleness_row -> unit
val pp_table1_row : Format.formatter -> table1_row -> unit
