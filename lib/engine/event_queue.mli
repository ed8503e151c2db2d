(** The name of the event-queue implementation {!Sim} runs on.

    {!Sim} has one pending-event store, a binary heap, so there is
    nothing to select. This stub exists only because the benchmark
    suite ([bench/suite/suite.ml]) labels each result set with
    [backend_to_string (default ())], and the suite is the frozen
    benchmark definition. Delete it together with the suite's
    ["scheduler"] field. *)

type backend
(** Abstract: nothing outside this stub names its one value, the binary
    heap. *)

val backend_to_string : backend -> string
(** ["heap"]. *)

val default : unit -> backend
(** The binary heap, the only backend. *)
