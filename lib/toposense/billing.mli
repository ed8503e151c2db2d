(** Usage accounting for billing.

    The paper points out (Sections II and VII) that the domain controller
    is naturally placed to bill customers for multicast content
    delivered: it already receives per-receiver byte counts and
    subscription levels. This module accumulates both — bytes delivered
    and layer-seconds subscribed — per (session, receiver), and renders
    simple invoices. Attach one to a {!Controller} with
    {!Controller.set_billing}. *)

type t

val create : unit -> t

val record :
  t ->
  session:int ->
  receiver:Net.Addr.node_id ->
  bytes:int ->
  level:int ->
  window:Engine.Time.span ->
  unit
(** Fold in one receiver report. *)

type invoice_line = {
  receiver : Net.Addr.node_id;
  megabytes : float;
  layer_hours : float;
  amount : float;
}

val invoice :
  t ->
  session:int ->
  price_per_megabyte:float ->
  price_per_layer_hour:float ->
  invoice_line list
(** One line per receiver with any usage on record, sorted by receiver:
    the bytes reported delivered, and the integral of the subscription
    level over the reported windows. *)
