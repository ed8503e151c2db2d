(** Receiver-side reception accounting.

    Tracks, per (session, layer), the packets received and — via sequence
    numbers — the packets that should have arrived, yielding the loss rate
    over a report window. This is the receiver half of the paper's
    RTCP-like feedback: TopoSense only ever sees what these windows
    export, never true link state.

    Loss is inferred from sequence-number gaps: over a window, the number
    of packets expected on a layer is the advance of the highest sequence
    number seen, and the loss rate is [(expected - received) / expected].
    Joining a layer (re)starts its tracking epoch so packets sent before
    the join are not counted as losses; leaving a layer freezes it. *)

type t

val create : unit -> t

val on_data : t -> session:int -> layer:int -> seq:int -> size:int -> unit
(** Record one received media packet. *)

val on_join_layer : t -> session:int -> layer:int -> unit
(** Start (or restart) the tracking epoch for a layer. *)

val on_leave_layer : t -> session:int -> layer:int -> unit
(** Stop tracking a layer; its counts no longer contribute to windows. *)

type window = {
  expected : int;  (** packets that should have arrived, from seq advance *)
  received : int;
  bytes : int;  (** bytes received in the window *)
  loss_rate : float;  (** 0 when [expected = 0] *)
  sustained : bool;
      (** this is the second (or later) consecutive lossy window for the
          session — the bursty-vs-sustained distinction of the paper's
          Section V *)
}

val take_window : t -> session:int -> window
(** Summarize the session's reception (all actively tracked layers
    combined) since the previous [take_window] for this session, and start
    a new window. *)

val layer_loss : t -> session:int -> layer:int -> float
(** Loss rate of one layer over the *current* (unfinished) window; 0
    when nothing expected. Test-only: the receiver-stats tests read the
    per-layer accounting through it. *)

val total_bytes : t -> session:int -> int
(** Bytes received for the session since creation. *)
