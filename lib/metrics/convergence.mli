(** Convergence-time metrics.

    How long a receiver takes, from its join, to first reach its optimal
    subscription — the cost of TopoSense's one-layer-per-interval
    exploration — and the disruption metric for the churn experiments. *)

val time_to_first_reach :
  changes:(Engine.Time.t * int) list ->
  joined_at:Engine.Time.t ->
  target:int ->
  Engine.Time.span option
(** Seconds (as a span) from [joined_at] until the trace first reaches a
    level ≥ [target]; [None] if it never does. *)

val disruption :
  changes:(Engine.Time.t * int) list ->
  window:Engine.Time.t * Engine.Time.t ->
  baseline:int ->
  int
(** Number of downward moves below [baseline] inside [window] — how often
    an established receiver was pushed under its entitlement (e.g. by a
    newcomer's join experiments). *)
