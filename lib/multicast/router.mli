(** Source-rooted multicast trees with IGMP-style leave latency.

    One [Router.t] manages the multicast state of every node in a network:
    per-(group) outgoing-interface lists, local membership, and join/prune
    propagation toward the group's source along the unicast reverse path.
    Creating the router installs the multicast forwarding handler on every
    node.

    Control-plane model (documented substitution — see DESIGN.md): join and
    prune messages propagate hop-by-hop with each link's propagation delay
    but are not subject to data-plane queueing, matching how ns models
    PIM/DVMRP-style state changes. Leaving a group only takes effect after
    [leave_latency] at the receiver's last-hop interface, modelling the
    IGMP group-leave latency the paper discusses in Section V; prunes
    further up the tree propagate with hop delay only.

    Data-plane: a multicast packet is reverse-path-forward checked, copied
    onto every outgoing interface of its group except the arrival
    interface, and delivered locally where there is local membership.

    Tree repair: every {!Net.Network.set_link_up} reaches the router
    through a topology observer carrying the changed link and the
    destinations whose routing tables moved, and the router repairs only
    the groups that evidence can have touched — those rooted at an
    affected destination (their reverse paths crossed the link) or with
    a recorded tree edge on the link. Within such a group, edges whose
    upstream interface died or moved off the reverse path are cut
    immediately; the severed subtree roots and graft-pending nodes that
    still want traffic re-graft along the new reverse path (with hop
    delays, so recovery takes network time); severed branches with no
    remaining interest are pruned. Groups with no source, and idle groups
    (no members, no recorded edges, no node awaiting a graft), are
    skipped — their sweeps could not do anything. *)

type t

val create :
  network:Net.Network.t ->
  ?leave_latency:Engine.Time.span ->
  ?expedited_leave:bool ->
  unit ->
  t
(** Installs forwarding on all nodes. Default [leave_latency] is 1 s.

    [expedited_leave] implements the remedy the paper proposes in
    Section V ("expedited group-leaves, where routers keep track of
    receivers downstream"): a leave prunes immediately instead of waiting
    out the IGMP leave latency. Default false. *)

val fresh_group : t -> source:Net.Addr.node_id -> Net.Addr.group_id
(** Allocates a group address rooted at [source]. *)

val source : t -> group:Net.Addr.group_id -> Net.Addr.node_id
(** @raise Invalid_argument on an unknown group. *)

val join : t -> node:Net.Addr.node_id -> group:Net.Addr.group_id -> unit
(** Local membership at [node]; grafts the node onto the tree (propagating
    toward the source with hop delays) if it is not already on it.
    Idempotent. *)

val leave : t -> node:Net.Addr.node_id -> group:Net.Addr.group_id -> unit
(** Drops local membership. Forwarding toward [node] stops only after the
    leave latency, and only if the node has not re-joined meanwhile.
    Idempotent. *)

val is_member : t -> node:Net.Addr.node_id -> group:Net.Addr.group_id -> bool
(** Local membership as requested by the application (ignores pending
    leave timers). *)

val crash_node : t -> node:Net.Addr.node_id -> unit
(** Wipes every trace of [node] from the group tables — local
    memberships (remembered for {!recover_node}), tree presence,
    outgoing interest, recorded edges in both directions — and voids its
    pending leave timers. Called by the fault layer's crash observers
    after the node's links are already down, when the per-link repairs
    have cut most of this already; the explicit wipe makes the crash
    semantics independent of repair ordering. Severed children keep
    their interest and re-graft through the normal repair path once
    connectivity returns. Idempotent. *)

val recover_node : t -> node:Net.Addr.node_id -> unit
(** Re-issues a {!join} for every local membership {!crash_node} wiped
    at [node] — the RPF joins that rebuild its group state along the
    fresh reverse paths. Must run after the node's links are restored.
    No-op if the node was not crashed. *)

val members : t -> group:Net.Addr.group_id -> Net.Addr.node_id list
(** Nodes with local membership, sorted. *)

val tree_edges :
  t -> group:Net.Addr.group_id -> (Net.Addr.node_id * Net.Addr.node_id) list
(** Installed forwarding edges as (parent, child) pairs, sorted by
    parent, then child — the actual distribution tree, including
    branches kept alive by leave latency. Used by the topology-discovery
    tool. *)

val on_tree : t -> node:Net.Addr.node_id -> group:Net.Addr.group_id -> bool

val version : t -> group:Net.Addr.group_id -> int
(** A counter for the group that moves whenever its {!members}, its
    {!tree_edges} or any node's {!is_member} for it may have changed:
    every recorded edge added or removed and every local membership
    gained or lost bumps it. Equal versions at two instants mean all
    three read the same at both. 0 for a group never touched. *)

val delivered : t -> group:Net.Addr.group_id -> int
(** Packets delivered to local members of [group] (all nodes), for tests. *)

val repair_passes : t -> int
(** Repair passes run since creation: one per topology event delivered by
    the network's observer (whether or not any group qualified for
    repair). NOT a per-group or per-sweep count — the work done within a
    pass is bounded by the event's damage and is visible in
    {!edges_repaired} and {!Net.Routing.recomputes} instead. *)

val edges_repaired : t -> int
(** Tree edges cut by repair passes since creation. *)
