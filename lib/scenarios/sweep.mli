(** Parallel sweep runner.

    Fans independent scenario runs across OCaml 5 domains. Every
    simulation stays single-threaded and owns its PRNG, so a sweep is
    embarrassingly parallel: [map ~jobs f items] produces exactly the
    list [map ~jobs:1 f items] would — same values, same order — for any
    [jobs]; only wall time changes. Results are position-addressed, and
    work is handed out through one atomic counter.

    Thunks must be self-contained: capture anything read from global
    mutable state before calling into this module, in the calling
    domain. *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()]: the parallelism the host can
    actually deliver. CLI layers clamp [--jobs] with this. *)

val map : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] computes [f i item] for each item (with [i] the
    item's position) on up to [jobs] domains — [jobs - 1] spawned, plus
    the calling domain — and returns the results in input order.
    [jobs = 1] (the default) runs sequentially in the calling domain
    with no spawns at all. If any [f] raises, the sweep completes the
    remaining items, then re-raises the exception of the lowest-indexed
    failure with its original backtrace.
    @raise Invalid_argument if [jobs < 1]. Test-only: the sweep tests
    check the index it passes; callers use {!run}. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] without the index. *)
