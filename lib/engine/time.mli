(** Simulated time.

    Time is an integer number of nanoseconds since the start of the
    simulation. Using integers (rather than float seconds) keeps event
    ordering exact and the simulation fully deterministic. A 63-bit [int]
    holds about 292 simulated years, far beyond any run in this project. *)

type t = private int
(** A point in simulated time, in nanoseconds. Always non-negative. *)

type span = int
(** A duration in nanoseconds. Durations used to advance time must be
    non-negative; [diff] returns a signed gap. *)

val zero : t
(** The simulation epoch. *)

val of_ns : int -> t
(** [of_ns n] is the instant [n] nanoseconds after the epoch.
    @raise Invalid_argument if [n] is negative. *)

val of_ms : int -> t
(** Test-only: the scheduler property tests draw their instants in
    milliseconds. *)

val of_sec : int -> t
(** @raise Invalid_argument if [n] is negative, or past
    [max_int / 10^9] seconds (about 146 years) where the nanoseconds
    would wrap. *)

val of_sec_f : float -> t
(** [of_sec_f s] rounds [s] seconds to the nearest nanosecond.
    @raise Invalid_argument if [s] is negative or not finite, or if its
    nanoseconds do not fit an [int] (about 146 years). *)

val to_ns : t -> int
val to_sec_f : t -> float

val add : t -> span -> t
(** [add t d] is the instant [d] after [t].
    @raise Invalid_argument if [d] is negative. *)

val diff : t -> t -> span
(** [diff a b] is [a - b] in nanoseconds (signed). *)

val span_of_sec_f : float -> span
(** Rounds a non-negative duration in seconds to nanoseconds.
    @raise Invalid_argument on negative or non-finite input, or past
    the range {!of_sec_f} accepts. *)

val span_of_ms : int -> span

val span_of_sec : int -> span
(** @raise Invalid_argument on a negative [n], or past the range
    {!of_sec} accepts. *)

val span_to_sec_f : span -> float

val mul_span : span -> int -> span
(** [mul_span d n] is [n] repetitions of [d], exactly — no float
    round-trip, so [add t (mul_span d n)] lands on the same nanosecond
    as [n] successive [add]s.
    @raise Invalid_argument if [d] or [n] is negative. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints as seconds with millisecond precision, e.g. ["12.345s"]. *)
