(** In-band, probe-based topology discovery.

    The oracle {!Discovery.Service} reads the router state directly and
    serves it with a configurable age; this module instead *discovers*
    each session tree the way mtrace-family tools do, entirely in-band:

    - receivers are learned from their own RTCP-like reports (the paper's
      "recipients register themselves with the controller agent");
    - each period the controller unicasts a probe query to every known
      receiver;
    - the receiver answers with a probe response whose hop list is
      appended by every router it crosses (a {!Net.Network} transit
      observer standing in for mtrace's per-router support);
    - responses are merged into a {!Discovery.Snapshot}.

    Because queries and responses are real packets crossing possibly
    congested links, the resulting topology image is late, incomplete
    under loss, and ages between probes — staleness becomes *emergent*
    instead of a parameter. Attach to a {!Controller} via its [?probe]
    argument. *)

type Net.Packet.payload +=
  | Probe_query of { probe_id : int; session : int }
  | Probe_response of {
      probe_id : int;
      session : int;
      receiver : Net.Addr.node_id;
      level : int;
      hops : Net.Addr.node_id list ref;
          (** appended at every node the response crosses, origin first *)
    }

val probe_size : int
(** Bytes on the wire for queries and responses (80). *)

type t

val create :
  network:Net.Network.t ->
  node:Net.Addr.node_id ->
  ?period:Engine.Time.span ->
  unit ->
  t
(** [node] is the querying controller's node. Queries go out every
    [period] (default 2 s); member registrations and chains older than
    10 s are forgotten. Installs the hop-recording
    transit observer. Call {!start} to begin probing. *)

val handle_packet : t -> Net.Packet.t -> unit
(** Feed packets delivered at the controller node (reports register
    receivers; probe responses carry chains). The {!Controller} calls
    this from its local handler. *)

val start : t -> unit
val stop : t -> unit

val latest : t -> session:int -> Discovery.Snapshot.t option
(** The session tree as assembled from the freshest response of every
    known receiver; [None] before any response. The snapshot's
    [taken_at] is the *oldest* response used, so downstream staleness
    accounting stays conservative. *)

val queries_sent : t -> int
val responses_received : t -> int
val known_receivers : t -> session:int -> Net.Addr.node_id list
(** Test-only: the probe tests check registration from reports. *)
