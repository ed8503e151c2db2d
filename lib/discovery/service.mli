(** The topology-discovery service.

    Stands in for mtrace/SNMP-style discovery tools (MHealth, mrtree …):
    the paper deliberately treats discovery as a black box and studies only
    the *age* of the information it returns (Fig. 10). The service
    periodically captures a {!Snapshot} of every registered session and
    answers queries with the newest snapshot at least [staleness] old —
    exactly the "old topology information" regime of the paper's
    evaluation. With [staleness = 0] the query may see the current state
    (captured fresh on demand). *)

type t

val create :
  sim:Engine.Sim.t ->
  router:Multicast.Router.t ->
  ?period:Engine.Time.span ->
  ?history:int ->
  unit ->
  t
(** Snapshots every [period] (default 1 s), keeping the last [history]
    (default 64) snapshots per session. Capturing starts when the first
    session is registered. *)

val register_session : t -> Traffic.Session.t -> unit

val sessions : t -> Traffic.Session.t list
(** Registered sessions, in registration order, which is the order they
    are captured in. Test-only: the service tests check that order. *)

val query :
  t -> session:int -> staleness:Engine.Time.span -> Snapshot.t option
(** The newest snapshot taken at or before [now - staleness]; [None] when
    no old-enough snapshot exists yet. [staleness = 0] captures and
    returns the live state. *)

(** {1 Domain registry}

    Per-domain controllers (the paper's Fig. 3) each see only their own
    domain's part of a session tree. Rather than every controller
    filtering the whole snapshot, the service cuts each snapshot across
    all registered domains in one pass and serves every controller its
    share. *)

type domain
(** A registered domain: one slot of the service's node → slot table. *)

val register_domain :
  t -> owner:Net.Addr.node_id -> Net.Addr.node_id list -> domain
(** Registers the node set of the controller at [owner]. A node set equal
    to one already registered shares its slot. @raise Invalid_argument
    when the set shares a node with a different registered domain; the
    message names the shared node and both controller nodes. *)

val restrict : t -> domain -> Snapshot.t -> Snapshot.t option
(** [Snapshot.restrict snap ~domain:nodes] for the domain's node set,
    with the same result and the same [Invalid_argument]. The first
    lookup on a snapshot partitions it across every registered domain in
    one O(edges + members) pass ({!Snapshot.partition}); later lookups on
    the same (physically equal) snapshot are array reads, until another
    snapshot of the session or a newly registered domain forces a new
    pass. *)

val partitions : t -> int
(** Partition passes made so far (one per snapshot and session, however
    many controllers query it). *)
