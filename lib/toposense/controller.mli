(** The domain controller agent.

    An application-level process at one node (the paper stations it at a
    source node, so its control traffic shares the congested links).
    Each interval it queries the discovery service for every registered
    session's tree — aged by [params.staleness] — folds in the receiver
    reports that arrived since the previous interval, runs
    {!Algorithm.step}, and unicasts a suggestion packet to every member
    receiver. A snapshot that is not a tree ({!Tree.of_snapshot} returns
    [None]) skips its session for the interval. Each session's last tree
    is kept and handed to {!Tree.of_snapshot} as [prev], so while the
    session's shape stands still the tree, and the algorithm's view of
    it, carry over from interval to interval. The algorithm covers the
    whole tree but is asked only for the prescriptions the controller
    sends: to every member, or under [params.prescribe_known_only] only
    to the members in the lease book. Suggestions are real packets: they
    can be dropped, which is what the receivers' unilateral-fallback
    timer is for.

    Control-plane reliability ({!Protocol}): every prescription carries a
    per-(session, receiver) sequence number; incoming reports are
    admitted through the matching dup/stale filter. Receiver
    membership is a soft-state lease — a receiver silent for
    [params.lease_intervals] intervals is evicted (left out of the
    algorithm input and never prescribed to) and re-admitted cleanly by
    its next report. With [params.reliable_prescriptions], unACKed
    prescriptions are retransmitted with exponential backoff and jitter
    from a dedicated PRNG stream until ACKed, superseded by a newer
    prescription, or given up after {!Params.retransmit_attempts}. *)

type Net.Packet.payload +=
  | Suggestion of { session : int; level : int; seq : int }
      (** 60 bytes on the wire. *)

type t

val create :
  network:Net.Network.t ->
  discovery:Discovery.Service.t ->
  params:Params.t ->
  node:Net.Addr.node_id ->
  ?domain:Net.Addr.node_id list ->
  ?probe:Probe_discovery.t ->
  ?federation:Federation.leaf ->
  unit ->
  t
(** Installs the report handler on [node]. Call {!add_session} for every
    session, then {!start}.

    With [domain], the controller manages only the given administrative
    domain (the paper's Fig. 3 model): the domain is registered with
    [discovery] ({!Discovery.Service.register_domain}) and session trees
    are restricted to it via {!Discovery.Service.restrict}, so congestion
    control, capacity estimation and suggestions all stay domain-local.
    Several controllers coexist on one service without knowing of each
    other; their domains must be disjoint (controllers with identical
    domains share one view). @raise Invalid_argument if [domain]
    partially overlaps a domain already registered on [discovery].

    With [probe], topology comes from in-band {!Probe_discovery} instead
    of the oracle service: the controller feeds it every packet it
    receives and reads its assembled snapshots, so the topology image is
    exactly as old, partial and lossy as real probing makes it.
    {!start} also starts the prober.

    With [federation], this controller is a leaf in a two-level
    hierarchy: each interval it additionally unicasts one
    {!Federation.Domain_summary} per session it ran to the federation
    parent, a fixed-size liveness beat. Combine with [domain] and
    [params.prescribe_known_only] for scaled worlds. *)

val add_session : t -> Traffic.Session.t -> unit
(** The session must also be registered with the discovery service. *)

val set_billing : t -> Billing.t -> unit
(** Every receiver report is additionally folded into the billing
    record (the paper's controller-as-billing-agent use case). *)

val start : t -> unit
(** Begins the periodic algorithm runs (first run one interval from
    now). Also restarts a stopped controller: reports are heard again and
    intervals resume, picking up from whatever stale state survived the
    outage — receivers meanwhile fall back to their unilateral
    watchdog. A federated leaf's summaries keep their sequence numbers
    across the outage, so the parent admits the restarted stream and
    drops pre-stop stragglers. *)

val stop : t -> unit
(** Models a controller outage (or failover away from this instance):
    cancels the interval task, stops the prober, and makes the controller
    deaf to incoming reports until {!start} is called again. *)

val running : t -> bool
(** Test-only: the outage tests check the stop and restart state. *)

val reports_received : t -> int

val suggestions_sent : t -> int
(** Suggestion packets actually originated; prescriptions addressed to
    the controller's own node are counted in {!self_suppressed}
    instead. *)

val self_suppressed : t -> int
(** Prescriptions suppressed because the receiver is this node. *)

val lease_suppressed : t -> int
(** Prescriptions suppressed because the (stale) snapshot still listed a
    member whose lease expired. *)

val summaries_sent : t -> int
(** {!Federation.Domain_summary} packets originated (0 without
    [federation]). *)

val receiver_state_entries : t -> int
(** Per-receiver state entries currently allocated, across sessions —
    the controller's footprint. Under [prescribe_known_only] this stays
    O(reporting receivers) however large the tree is. *)

val intervals_run : t -> int
val skipped_no_snapshot : t -> int
(** Intervals where a session had no old-enough snapshot yet. *)

(** {1 Reliable-control-plane counters} *)

val evictions : t -> int
(** Receivers whose liveness lease expired. *)

val readmissions : t -> int
(** Evicted receivers re-admitted by a fresh report. *)

val retransmits : t -> int
(** Prescription retransmissions (0 unless
    [params.reliable_prescriptions]). *)

val give_ups : t -> int
(** Prescriptions abandoned after {!Params.retransmit_attempts}
    retransmissions without an ACK. *)

val stale_rejected : t -> int
(** Reports dropped as duplicates or stale reorderings. *)

val acks_received : t -> int

val receiver_active : t -> session:int -> node:Net.Addr.node_id -> bool
(** Whether the receiver currently holds an active lease for the session
    (false if unknown or evicted). *)

val forget_receiver : t -> session:int -> receiver:Net.Addr.node_id -> unit
(** Drops the receiver from the lease book and releases its per-receiver
    state (cancelling any pending retransmission). Called on a failover
    target when the receiver's home leaf rejoins, so exactly one
    controller prescribes to it afterwards. The prescription seq space
    is kept — sequences never rewind. No-op if unknown. *)
