(** Stage 5: demand computation and supply allocation.

    Runs once per TopoSense interval per session, carrying per-node state
    across intervals (congestion-state history, received-bytes history,
    granted-supply history — the indices into Table I).

    Demand flows bottom-up: a leaf turns its Table I action into a
    bandwidth demand (its current cumulative rate, one more layer, or a
    reduction toward past supply); an internal node aggregates its
    children — the *maximum* child demand, because layers on its inbound
    link are shared — then applies its own Table I row. A node whose
    parent is congested defers: it passes its aggregate through and lets
    the root of the congested subtree act (which also arms the back-off
    timer for the highest layer it drops).

    Supply flows top-down: each node receives the minimum of its demand,
    its parent's supply and the stage-4 cap of its inbound edge. A member
    leaf's prescription is the largest level its supply affords, adding
    at most one layer per interval and never adding a layer that is
    backing off on its path. *)

type t

val create : backoff:Backoff.t -> t

type node_state
(** One node's histories in one session: congestion states, bytes,
    granted supply and last demand. *)

val node_state : t -> session:int -> node:Net.Addr.node_id -> node_state
(** The node's state, created (blank) on first use. It lives as long as
    [t], so a handle taken once serves every later interval: the
    algorithm keeps one per node of each session tree and looks the
    node up again only when the tree changes shape. *)

type input = {
  session : int;
  layering : Traffic.Layering.t;
  tree : Tree.t;
  verdicts : Congestion.t;
  levels : int array;
      (** current subscription level of each member leaf, by tree index *)
  states : node_state array;
      (** [node_state t ~session ~node:(Tree.node tree i)] at each index
          [i] *)
  may_add : Net.Addr.node_id -> bool;
      (** false while a leaf's last level change is younger than the
          feedback loop: the loss evidence for the new level has not
          arrived yet, and adding again would overshoot by two layers *)
  frozen : Net.Addr.node_id -> bool;
      (** settling leaves: loss counts as evidence upstream but must not
          reduce this leaf again *)
  caps : float array;
      (** stage-4 cap for this session on the edge into each node,
          bits/s, by tree index *)
  recipients : Net.Addr.node_id list;
      (** the member leaves to prescribe to *)
}

val step :
  t -> now:Engine.Time.t -> input -> (Net.Addr.node_id * int) list
(** Prescribed subscription levels for the recipients that are member
    leaves of the tree, in [recipients]' order. Advances the histories
    of every node of the tree, recipient or not: a silent node's history
    feeds its ancestors' demands, and its own once it reports. Each
    node's persistent state is read through [states], with no lookup;
    the demand and supply passes run on scratch arrays that [t] keeps
    and grows to the largest tree seen. The prescription pass only
    reads state, so the levels prescribed to one recipient do not
    depend on the others. *)

