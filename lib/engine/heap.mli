(** A mutable binary min-heap.

    Generic over the element type; ordering is supplied at creation. Used
    by {!Net.Routing}'s Dijkstra passes, over [(distance, node)] pairs. The
    event queue of {!Sim} has its own heap on flat int keys. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap using [cmp] as the (total) order. *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. The vacated slot is
    cleared so the element can be reclaimed, and the backing array
    shrinks once it is no more than a quarter full. *)

val capacity : 'a t -> int
(** Size of the backing array; for tests of the shrink policy. *)
