(** Layered media senders.

    A source transmits *all* layers of its session all the time (standard
    layered multicast: pruning, not the source, stops unwanted layers).
    Packets are 1000 bytes ({!Net.Packet.data_size}).

    Two traffic models from the paper's Section IV:
    - {b CBR}: layer [i] emits evenly spaced packets at its nominal rate.
    - {b VBR} (Gopalakrishnan et al.): time is sliced into 1 s intervals;
      in each interval a layer with average [A] packets draws
      [n = 1] with probability [1 - 1/P] and [n = P·A + 1 - P] with
      probability [1/P] ([P] = peak-to-mean ratio), then spaces the [n]
      packets evenly across the interval. [E n = A]. *)

type kind =
  | Cbr
  | Vbr of { peak_to_mean : float }  (** P in [2, 10] per the paper *)

type t

val start :
  network:Net.Network.t ->
  session:Session.t ->
  kind:kind ->
  rng:Engine.Prng.t ->
  unit ->
  t
(** Begins transmission of every layer now; a source sends until the run
    ends. The [rng] draws each layer's phase and the VBR packet counts.
    @raise Invalid_argument naming the parameter when a VBR
    [peak_to_mean] is not a finite number >= 1. *)

val packets_sent : t -> layer:int -> int
(** Packets originated so far on a layer. *)

val bytes_sent : t -> int
(** Total bytes originated across all layers. *)
