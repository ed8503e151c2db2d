(** Growable bitset over non-negative ints.

    The scale work (PR 7) keys almost every index by a dense id — node,
    group, interface, domain — so membership sets are packed bit vectors
    instead of balanced trees: [mem]/[add]/[remove] are O(1), a
    100k-receiver group costs ~12 KB instead of a million heap words,
    and iteration is ascending, matching [Set.Make(Int)] element order
    so views built from either representation compare equal.

    Mutable: sets are updated in place. Use {!copy} (or union into a
    fresh set) before iterating anything a callback may mutate. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty set; [capacity] pre-sizes the backing array for ids in
    [0, capacity) (it still grows on demand). *)

val mem : t -> int -> bool
val add : t -> int -> unit
(** @raise Invalid_argument on a negative id. *)

val remove : t -> int -> unit
val clear : t -> unit
val is_empty : t -> bool
val cardinal : t -> int
val union_into : into:t -> t -> unit
(** Adds every element of the second set to [into]. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. The callback must not mutate the set. *)

val fill_into : t -> int array -> int
(** Writes the elements, ascending, into the array starting at index 0
    and returns the count. The array must have room for [cardinal t].
    Lets a hot loop (the multicast fan-out) iterate a set into a
    reusable scratch buffer without allocating an iteration closure. *)

val elements : t -> int list
(** Ascending order. *)

val of_list : int list -> t
