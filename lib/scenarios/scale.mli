(** The 10k–1M-receiver scale scenario (roadmap item 1).

    Builds a generated transit-stub world ({!Builders.transit_stub}),
    joins the {e entire} receiver population to the session's base layer
    (exercising the bitset membership paths), runs one leaf controller
    per stub domain federated under a {!Toposense.Federation} parent,
    and samples a handful of real reporting agents per domain. The
    state-scaling claims are asserted, not just measured:

    - routing columns materialized stay within a bound computed from the
      config's active-agent knobs alone (lazy routing: memory follows
      {e use}, not world size) — {!run} fails otherwise;
    - the federation parent's slot table is sessions x domains;
    - leaf-controller receiver state is O(reporters) thanks to
      [prescribe_known_only].

    Peak RSS is read from [/proc/self/status] (VmHWM); the [scale] CLI
    prints it and CI gates on it. *)

type config = {
  transits : int;
  stubs_per_transit : int;
  receivers_per_stub : int;
  active_domains : int;  (** domains that get real reporting agents *)
  active_per_domain : int;  (** reporting agents per active domain *)
  duration : Engine.Time.t;
  seed : int64;
}

val config_10k : config
(** 5 transits x 4 stubs x 500 receivers = 10k receivers, 20 domains,
    8 active domains x 3 agents, 10 s. *)

val config_100k : config
(** 10 x 10 x 1000 = 100k receivers, 100 domains, 5 s. *)

val config_1m : config
(** 10 x 20 x 5000 = 1M receivers, 200 domains, 2 s. *)

val receivers_of : config -> int
val domains_of : config -> int

type outcome = {
  nodes : int;
  links : int;
  receivers : int;
  domains : int;
  active_agents : int;
  events_dispatched : int;
  events_per_sec : float;  (** dispatched / [run_cpu_s] *)
  build_cpu_s : float;  (** world + population construction *)
  run_cpu_s : float;  (** the simulation itself *)
  peak_rss_kb : int;  (** VmHWM; 0 where /proc is unavailable *)
  materialized_columns : int;
  column_bound : int;  (** derived from config; run fails if exceeded *)
  parent_state_entries : int;
  summaries_received : int;
  suggestions_sent : int;
  reports_received : int;
  controller_state_entries : int;
      (** per-receiver entries across all leaf controllers *)
}

val run : ?config:config -> unit -> outcome
(** Build the world for [config] (default {!config_10k}) and simulate it
    to [config.duration]: [execute (prepare ~config ())]. Deterministic
    for a given config — every outcome field except the timing and RSS
    readings ([build_cpu_s], [run_cpu_s], [events_per_sec],
    [peak_rss_kb]) is a function of the config alone.
    @raise Invalid_argument on inconsistent active knobs.
    @raise Failure if materialized routing columns exceed the
    config-derived bound (a lazy-routing regression). *)

type prepared
(** A fully constructed world, ready to simulate — the build/run seam,
    so the bench can time setup separately from the simulation. *)

val prepare : ?config:config -> unit -> prepared
(** World and population construction only: everything up to (not
    including) the event loop. @raise Invalid_argument as {!run} does. *)

val execute : prepared -> outcome
(** Run the prepared world to its configured duration. Single-shot: a
    [prepared] world is consumed by its first execution.
    @raise Failure as {!run} does, on the column bound. *)

val peak_rss_kb : unit -> int
(** This process's high-water RSS in kB (VmHWM), 0 off-Linux. *)

val pp : Format.formatter -> outcome -> unit
