(** Layer rate schedules for cumulative layered media.

    A schedule fixes the average rate of each layer. The paper's sessions
    use 6 layers with a 32 Kbps base and each subsequent layer requiring
    twice the bandwidth of the previous one. A receiver's *subscription
    level* is the number of layers it receives, from 0 (nothing) to
    [count] (everything); the bandwidth of level [k] is the sum of the
    first [k] layer rates, because layers are cumulative. *)

type t

val paper_default : t
(** 6 layers, 32 Kbps base, doubling: 32, 64, 128, 256, 512, 1024 Kbps. *)

val count : t -> int

val rate_bps : t -> layer:int -> float
(** Average rate of an individual layer, 0-based.
    @raise Invalid_argument if [layer] is out of range. *)

val cumulative_bps : t -> level:int -> float
(** Bandwidth of subscription level [level] (layers [0 .. level-1]);
    [cumulative_bps t ~level:0 = 0].
    @raise Invalid_argument if [level < 0 || level > count]. *)

val level_for_bandwidth : t -> bps:float -> int
(** The largest level whose cumulative bandwidth fits in [bps]. *)
