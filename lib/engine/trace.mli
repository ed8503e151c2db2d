(** Bounded in-memory event trace.

    A ring buffer of timestamped records: [Discovery.Service] keeps each
    session's recent snapshots in one, to answer queries for the image as
    it was a staleness window ago without paying for unbounded
    history. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val record : 'a t -> Time.t -> 'a -> unit
(** Appends, evicting the oldest record when full. *)

val find_last : 'a t -> f:('a -> bool) -> (Time.t * 'a) option
(** The newest held record that satisfies [f]. *)
