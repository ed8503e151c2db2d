(** Per-link utilization and drop monitoring.

    Samples every simplex link's cumulative counters on a fixed period
    and keeps windowed deltas — utilization as a fraction of capacity,
    drops per window, instantaneous queue length. This is measurement
    machinery for experiments and examples (a real TopoSense deployment
    has no such oracle; the controller never reads it). *)

type t

val create : network:Network.t -> unit -> t
(** Snapshots the baseline counters of every link. *)

type window = {
  at : Engine.Time.t;  (** end of the window *)
  bytes : int;
  drops : int;
  utilization : float;  (** bytes·8 / (capacity · window length) *)
  queue_length : int;  (** at sampling time *)
}

val attach : t -> period:Engine.Time.span -> Engine.Sim.handle
(** Records one window for every link each [period] (the delta since the
    previous window). *)

val windows :
  t -> node:Addr.node_id -> iface:int -> window list
(** Oldest first; empty if never sampled. Test-only: the flow-stats tests
    read the per-window samples. *)

val peak_utilization : t -> node:Addr.node_id -> iface:int -> float
(** Test-only: the flow-stats tests check an idle direction through it. *)

val total_drops : t -> node:Addr.node_id -> iface:int -> int

val busiest_links :
  t -> top:int -> (Addr.node_id * int * float) list
(** (node, iface, mean utilization), highest first. *)
