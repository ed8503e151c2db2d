(** RTCP-like receiver reports.

    Defines the report payload carried by real (droppable) packets from
    each receiver to its domain controller, and the sender helper. One
    report covers one session at one receiver over one report window. *)

type Net.Packet.payload +=
  | Report of {
      receiver : Net.Addr.node_id;
      session : int;
      level : int;  (** subscription level when the report was emitted *)
      loss_rate : float;
      bytes : int;  (** bytes received in the window *)
      window : Engine.Time.span;  (** length of the window *)
      settling : bool;
          (** the receiver dropped a layer moments ago and this window's
              loss may be drain/leave-latency residue; the reported loss
              is still real and usable as congestion evidence, but the
              receiver should not be asked to reduce further because of
              it *)
      sustained : bool;
          (** at least two consecutive report windows saw loss
              ({!Receiver_stats.window.sustained}) *)
      seq : int;
          (** per-(receiver, session) report sequence number, 1-based
              and monotonic; the controller uses it to drop duplicated
              or reordered-stale reports and to refresh the sender's
              liveness lease *)
    }
      (** 100 bytes on the wire (RTCP RR-sized). *)

val send_report :
  network:Net.Network.t ->
  receiver:Net.Addr.node_id ->
  controller:Net.Addr.node_id ->
  session:int ->
  level:int ->
  window:Engine.Time.span ->
  ?settling:bool ->
  seq:int ->
  Receiver_stats.window ->
  unit
(** Emit one report packet toward the controller. It is routed like any
    unicast packet and can be lost under congestion. *)
