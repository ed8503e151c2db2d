(** Two comparisons the paper argues but does not run, each on a fixed
    hand-built world. Neither takes a seed: each call returns the same
    numbers. *)

type shared_bytes = { layered : int; simulcast : int }

val shared_link_bytes : unit -> shared_bytes
(** Bytes sent on Topology A's source link over 60 s of CBR traffic,
    with one receiver per branch pinned at its optimum (levels 4 and 2),
    under cumulative layers and under replicated streams. Layering
    carries [cum(4)], simulcast [cum(4) + cum(2)]: a ratio of 1.2. *)

type tcp_outcome = {
  alone_bps : float;  (** TCP goodput with the bottleneck to itself *)
  shared_bps : float;  (** TCP goodput against the TopoSense session *)
  level : int;  (** the session receiver's final level *)
}

val tcp_vs_toposense : unit -> tcp_outcome
(** One TCP flow across a 1 Mbps bottleneck for 300 s, alone and then
    beside one CBR TopoSense session (controller at the source, one
    receiver agent behind the bottleneck). The paper's Section VI admits
    that the session keeps its layers while TCP backs off. *)
