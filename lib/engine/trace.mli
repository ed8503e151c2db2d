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

val length : 'a t -> int
(** Records currently held (≤ capacity). *)

val total : 'a t -> int
(** Records ever written, including evicted ones. *)

val to_list : 'a t -> (Time.t * 'a) list
(** Oldest first. *)

val find_last : 'a t -> f:('a -> bool) -> (Time.t * 'a) option

val iter : 'a t -> f:(Time.t -> 'a -> unit) -> unit
(** Oldest first. *)
