(** A mutable binary min-heap.

    Generic over the element type; ordering is supplied at creation. Used by
    the event queue, where determinism requires a total order (ties are
    broken by the caller before they reach the heap). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap using [cmp] as the (total) order. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. The vacated slot is
    cleared so the element can be reclaimed, and the backing array
    shrinks once it is no more than a quarter full. *)

val peek_exn : 'a t -> 'a
val pop_exn : 'a t -> 'a
(** As [peek]/[pop] but without the option wrapper, so a per-event hot
    loop allocates nothing. @raise Invalid_argument when empty. *)

val filter : 'a t -> ('a -> bool) -> unit
(** Keeps only the elements satisfying the predicate, in O(n): compacts
    the live elements, clears the dead tail and re-establishes the heap
    order bottom-up. Used for lazy-deletion compaction of cancelled
    events. *)

val capacity : 'a t -> int
(** Size of the backing array; for tests of the shrink policy. *)
