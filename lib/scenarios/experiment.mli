(** One simulation run: topology + traffic + control scheme → outcome.

    Builds the stack with {!World.build} (network, multicast, sources,
    discovery, and the controller and receivers or a baseline's
    receivers), runs it for the paper's 1200 simulated seconds
    (configurable) and extracts the quantities the figures need:
    per-receiver subscription change logs against the oracle optimum,
    and optional per-second samples of level and loss for the Fig. 9
    time-series plot. *)

type traffic =
  | Cbr
  | Vbr of float  (** peak-to-mean ratio P *)

type scheme =
  | Toposense  (** controller + receiver agents (the paper's system) *)
  | Rlm  (** receiver-driven baseline, no controller *)
  | Oracle  (** receivers pinned at the optimum (sanity baseline) *)

type receiver_outcome = {
  session : int;
  node : Net.Addr.node_id;
  optimal : int;
  changes : (Engine.Time.t * int) list;  (** oldest first, includes t=0 join *)
  final_level : int;
  last_loss : float;
}

type sample = { at : Engine.Time.t; level : int; loss : float }

type outcome = {
  receivers : receiver_outcome list;
  series : ((int * Net.Addr.node_id) * sample list) list;
      (** per (session, receiver), oldest first; empty without
          [sample_period] *)
  reports_received : int;
  suggestions_sent : int;
  skipped_no_snapshot : int;
  events_dispatched : int;
  forwarded_packets : int;
      (** total per-hop link transmissions across the run *)
  peak_heap : int;
      (** high-water mark of the event queue's backing store, cancelled
          tombstones included (bounds queue memory) *)
  peak_live : int;
      (** high-water mark of genuinely outstanding (non-cancelled)
          events — bounds scheduled work *)
  duration : Engine.Time.t;
}

val run :
  spec:Builders.spec ->
  traffic:traffic ->
  scheme:scheme ->
  ?params:Toposense.Params.t ->
  ?seed:int64 ->
  ?duration:Engine.Time.t ->
  ?sample_period:Engine.Time.span ->
  ?leave_latency:Engine.Time.span ->
  ?expedited_leave:bool ->
  ?probe_discovery:bool ->
  unit ->
  outcome
(** Defaults: {!Toposense.Params.default}, seed 42, 1200 s, no sampling,
    1 s IGMP leave latency, no expedited leave, oracle discovery.
    [probe_discovery] switches the controller to in-band
    {!Toposense.Probe_discovery} (TopoSense scheme only). *)

val source_kind : traffic -> Traffic.Source.kind
(** The source model that runs a [traffic] setting. *)

val forwarded_packets_of : Net.Network.t -> int
(** Total packet transmissions across every simplex link of the network:
    each hop a packet takes counts once, so this tracks forwarding work,
    not originations. *)

val pp_traffic : Format.formatter -> traffic -> unit
val pp_scheme : Format.formatter -> scheme -> unit
