(** The seeded chaos harness.

    Generates (or is handed) a schedule of faults — link flaps, node
    crashes, leaf/parent controller outages, lossy control-plane bursts
    — injects them into a running world during a storm window, lets the
    system quiesce, and then asserts the global invariants the rest of
    the codebase maintains piecemeal:

    - {b routing}: the incrementally-maintained tables agree with a
      fresh Dijkstra over the restored topology (next hop {e and}
      distance);
    - {b trees}: every layer's installed forwarding edges equal the
      union of the members' reverse paths in a fresh compute — a fresh
      rebuild;
    - {b leases}: every agent holds an active lease in exactly one
      controller's book (no orphans, no double-booking after failover
      and rejoin);
    - {b re-prescription}: every surviving agent admitted a fresh
      prescription within 3 controller intervals of the storm's end;
    - {b sessions}: no agent lost its session (level >= 1).

    Schedules are plain data in abstract units — indices are resolved
    modulo the world's link/node/domain sets and times are clamped into
    the storm window — so QCheck can generate and shrink them without
    knowing the topology. *)

type fault =
  | Flap of { link : int; at_s : float; dur_s : float }
      (** one down/up cycle of link [link mod #links] *)
  | Crash of { victim : int; at_s : float; dur_s : float }
      (** fail-stop crash of a receiver node (index into the receiver
          set, source excluded): links down, queues drained, multicast
          state wiped, co-located controller and agent processes
          stopped; all restored on recovery *)
  | Ctrl_crash of { domain : int; at_s : float; dur_s : float }
      (** software crash of the leaf controller serving
          [domain mod #domains] — the node stays up (a stub-router node
          crash would partition the domain; this models only the
          controller process dying) *)
  | Parent_crash of { at_s : float; dur_s : float }
      (** software crash of the re-home (parent-side) controller *)
  | Lossy_burst of { at_s : float; dur_s : float; drop : float }
      (** control-plane tampering window: reports, suggestions, ACKs,
          probes and domain summaries dropped with probability [drop];
          overlapping bursts nest (the filter clears when the last one
          ends) *)

type schedule = fault list

type world =
  | Kary of { fanout : int; depth : int }
      (** {!Builders.kary} with cross links; one flat controller at the
          root (which also serves as the re-home target), an agent at
          every leaf, reliable prescriptions, tables prefetched and
          checked all-pairs *)
  | Transit_stub of {
      transits : int;
      stubs_per_transit : int;
      receivers_per_stub : int;
      active_domains : int;
      active_per_domain : int;
    }
      (** {!Builders.transit_stub} wired as the scale runs: one leaf
          controller per stub domain reporting {!Toposense.Federation}
          summaries to a parent at the source, agents in the first
          [active_domains] domains, everyone else a passive base-layer
          member; a re-home controller at the source takes over degraded
          domains via {!Toposense.Federation.start_failover}; routing is
          checked over every destination the control plane used *)

type outcome = {
  nodes : int;
  links : int;
  receivers : int;
  agents : int;
  faults : int;  (** schedule length *)
  flaps : int;
  crashes : int;
  ctrl_crashes : int;  (** leaf + parent controller outages armed *)
  lossy_bursts : int;
  crash_drops : int;  (** packets lost to crash queue drains *)
  evictions : int;  (** summed over every controller *)
  readmissions : int;
  failovers : int;
      (** domains the federation parent saw degrade and took over *)
  rehomed_prescriptions : int;
  rejoins : int;
  routing_consistent : bool;
  trees_consistent : bool;
  leases_consistent : bool;
  represcribed : bool;
  lost_sessions : int;  (** agents that ended below level 1 *)
  violations : string list;
      (** empty iff every invariant held; each entry names the witness *)
  routing_recomputes : int;
  repair_passes : int;
  edges_repaired : int;
  events_dispatched : int;
  peak_heap : int;
  peak_live : int;
}

val ok : outcome -> bool
(** [violations = []]. *)

val gen : rng:Engine.Prng.t -> faults:int -> storm_s:float -> schedule
(** Uniform random schedule (40% flaps, 30% crashes, 20% controller
    outages, 10% lossy bursts) for the CLI; tests build their own via
    QCheck so shrinking works.
    @raise Invalid_argument if [faults < 0]. *)

val run :
  world:world ->
  schedule:schedule ->
  ?storm_s:float ->
  ?seed:int64 ->
  unit ->
  outcome
(** Builds the world, arms the schedule (times clamped into
    [5, storm_s - 10], recoveries by [storm_s - 2]), restores everything
    at [storm_s] (crashed nodes recovered, every link forced up, the
    tamperer silenced, every controller restarted — the final graph is
    the pristine topology, so the oracle is a fresh compute), probes
    re-prescription at [storm_s + 3 intervals + 1 s], freezes agents and
    controllers at [storm_s + 20 s] so leave latency expires, and
    evaluates the invariants at [storm_s + 30 s]. Faults go through the
    world's [faults] handle ({!World.t}), whose crash observer stops and
    restarts the crashed node's processes. [storm_s] defaults to 60.
    The run is deterministic per [seed] (default [42L]).
    @raise Invalid_argument before building anything if [storm_s] is not
    finite, [storm_s < 20], or not {!storm_fits}; the message names
    [storm_s]. Also, before the simulation starts, if a [Transit_stub]
    world's [active_domains] or [active_per_domain] is below 1, or
    [active_domains] exceeds its domain count; the message names the
    knob. *)

val storm_fits : float -> bool
(** Whether the clock reaches the end of a run with this [storm_s]:
    {!run} simulates 30 s of quiet past the storm. *)

val pp : Format.formatter -> outcome -> unit
