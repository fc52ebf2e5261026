(** Dynamic membership over the CO protocol: epoch-stamped views,
    view-change barriers, and checkpoint-based state transfer (DESIGN.md
    §16).

    A group is a simulated population of [max_nodes] endpoints (stable
    {e global node ids}) of which the current {!View.t} names the members.
    Each member runs one {!Repro_core.Entity} per epoch, created over the
    view's dense {e rank} space with an epoch-derived cluster id — so the
    entity's existing cid guard is the epoch guard: a PDU from any other
    epoch fails the [ours] check and is dropped (and counted here as a
    stale-epoch arrival).

    {2 View changes}

    A membership change (JOIN/LEAVE/EVICT) is proposed by broadcasting a
    {!Repro_pdu.Memberwire.Propose}; the {e coordinator} (lowest-id member,
    skipping an eviction target) serializes proposals and conducts the
    barrier:

    + {b Quiesce} — the coordinator re-broadcasts the accepted proposal;
      each member stops accepting new {!submit}s and starts reporting its
      REQ vector and queue-drain status to the coordinator every control
      period.
    + {b Reconcile} — the coordinator re-broadcasts the latest REQ matrix;
      for every source some member lags on, the lowest-ranked member
      holding the missing PDUs pushes them point-to-point
      ({!Repro_pdu.Memberwire.Repair}), which is what lets the barrier
      close gaps left by a source that can no longer answer RETs (an
      evicted crash). An evicted member is excluded from the report set;
      its log state is reconstructed from whichever survivors hold it.
    + {b Commit} — when every required member reports the same REQ vector
      with a drained queue, the coordinator broadcasts
      {!Repro_pdu.Memberwire.Commit} carrying the next view and the
      reconciled REQ matrix. Each member folds the matrix into its entity
      ({!Repro_core.Entity.close_epoch}), which flushes every accepted PDU
      to the application in causal order; the epoch is then cut over.

    {2 State carry and transfer}

    After the flush, each survivor's next-epoch entity is built by
    restoring the {!bootstrap} blob — a
    {!Repro_core.Entity.bootstrap_checkpoint} of the common
    post-barrier state with clocks and header tables remapped to the new
    view's rank space ({!View.rank_map}); sequence numbers continue across
    epochs. A joiner cannot build that blob itself (it needs the closing
    epoch's REQ baseline and header table), so its {e sponsor} — the
    lowest-id surviving member — ships it the same bytes as a
    [co-checkpoint-v1] {!Repro_pdu.Memberwire.State} transfer, re-sent each
    control period until the joiner is heard from. Any new-epoch prefix the
    joiner misses while the transfer is in flight self-heals through the
    ordinary RET / anti-entropy path after its post-restore kick.

    All membership frames ride the same lossy, overrun-prone medium as data
    PDUs; every control-plane step above is idempotent and timer-driven, so
    a lost frame only delays a barrier. A barrier can still wedge when
    suspicion declares a live member departed while a crashed one is
    still required (DESIGN.md §16). Not modeled:
    coordinator failure mid-barrier (the coordinator is assumed to survive
    the barriers it conducts). *)

type packet =
  | Proto of Repro_pdu.Pdu.t  (** Data plane: one CO-protocol PDU. *)
  | Control of Repro_pdu.Memberwire.t  (** Membership control plane. *)

type config = {
  max_nodes : int;  (** Endpoints on the medium; global ids [0..max-1]. *)
  protocol : Repro_core.Config.t;
      (** Per-entity template. [cid] is the {e base} cluster id ([epoch]
          and the effective per-epoch cid are derived); [retain_arl] must
          be [true] — barrier repair harvests delivered PDUs from the
          ARL. *)
  topology : Repro_sim.Topology.t;  (** Must span [max_nodes] endpoints. *)
  inbox_capacity : int;
  service_time : Repro_sim.Simtime.t;  (** Per-packet processing time. *)
  loss_prob : float;
  seed : int;
  control_period : Repro_sim.Simtime.t;
      (** Cadence of barrier reports, reconcile rounds and state-transfer
          resends. *)
  registry : Repro_obs.Registry.t option;
      (** When set, the group maintains [co_view_changes_total{epoch}],
          [co_state_transfer_bytes_total], [co_stale_epoch_total],
          [co_repair_pdus_total] and [co_evictions_total]. *)
}

val default_config : max_nodes:int -> config
(** Uniform 1ms topology, inbox 64, service time scaled to [max_nodes], no
    loss, 5ms control period, no registry. *)

val count_view_change : Repro_obs.Registry.t option -> epoch:int -> unit
(** Count one committed view change into [co_view_changes_total{epoch}]
    (nothing without a registry). The one registration of that family,
    shared by every host that commits views. *)

val epoch_cid : cid:int -> epoch:int -> int
(** The effective cluster id of epoch [epoch] under base cluster id [cid]
    — injective per (base, epoch < 2^20), never equal to another epoch's,
    so the entity-level cid guard doubles as the epoch guard. *)

val epoch_config : Repro_core.Config.t -> epoch:int -> Repro_core.Config.t
(** [epoch_config base ~epoch] is the entity configuration of epoch [epoch]
    under the base template [base]: [base] with [epoch] set and [cid]
    replaced by {!epoch_cid}. *)

(** {2 Epoch cut-over}

    The one translation of a closing epoch's reconciled state into the next
    view, shared by every host that commits views: this module's barrier,
    [Udp_cluster.commit_view_change] over real sockets and the model
    checker's [Cut] event. A host without global node ids describes its
    change in rank space — the closing view [{ epoch; members = [|0..n-1|] }]
    and its {!View.apply} with [Join n] or [Leave l]. *)

val reconciled : Repro_core.Entity.t array -> bool
(** The cut's precondition, checked over a whole (non-empty) view: every
    entity is drained ({!Repro_core.Entity.backlog} [= 0]) and all REQ
    vectors are equal. Copies still in flight are then duplicates the next
    epoch's cid guard fences, or PDUs nobody accepted, which the cut
    uniformly forgets. *)

val bootstrap :
  Repro_core.Config.t ->
  closing:View.t ->
  next:View.t ->
  req:int array ->
  rank:int ->
  Repro_core.Entity.t ->
  string
(** [bootstrap base ~closing ~next ~req ~rank basis] is the
    [co-checkpoint-v1] blob that opens epoch [next.epoch] at rank [rank] of
    [next] ({!Repro_core.Entity.bootstrap_checkpoint} under
    {!epoch_config}). [req] is the closing epoch's reconciled REQ vector;
    it carries over per surviving source through {!View.rank_map}, and a
    joiner's column starts at 1. [basis] is the closing-epoch entity whose
    accepted-header table crosses the cut: the member's own for a survivor,
    its sponsor's for a joiner. Only entries of surviving sources below the
    cut ([seq < req.(src)]) cross, re-homed with their ACK vectors remapped
    the same way; entries at or above it are sequenced empties sent while
    quiescing, which every member forgets alike.
    @raise Invalid_argument as {!Repro_core.Entity.bootstrap_checkpoint}. *)

type t

val create : config -> initial:int array -> t
(** A group whose epoch-0 view is [initial] (global node ids, ascending).
    @raise Invalid_argument on a bad config (including
    [retain_arl = false]), fewer than 2 initial members, or members outside
    [0..max_nodes-1]. *)

val engine : t -> Repro_sim.Engine.t
val network : t -> packet Repro_sim.Network.t

val epoch : t -> int
(** The highest epoch any node has installed. *)

val members : t -> int array
val is_member : t -> int -> bool

val entity : t -> node:int -> Repro_core.Entity.t option
(** The current-epoch entity of a node, if it is an installed member. *)

val submit : t -> node:int -> string -> bool
(** Hand a DT request to [node]'s entity. [false] — refused — when the
    node is not an installed member, is down, or is quiesced by an
    in-progress view change (the barrier's send fence). [true] means the
    entity took it (sent immediately or queued on the flow window). *)

val propose : t -> origin:int -> Repro_pdu.Memberwire.change -> unit
(** Broadcast a membership proposal from [origin] (for a join, the joiner
    itself; need not be a member). Re-broadcast every other control period
    until the change is reflected in the installed view, so a lost
    proposal delays rather than loses the change.
    @raise Invalid_argument if [origin] is out of range or down. *)

val crash : t -> node:int -> unit
(** Silence a node: it stops receiving, sending and firing timers. Its
    entity state is retained but frozen — the membership layer's remedy is
    suspicion-driven eviction, not repair. *)

val revive : t -> node:int -> unit
(** Un-silence a crashed node as a blank slate (no entity, no view —
    models losing volatile state). To re-enter the cluster it must
    {!propose} a join and be bootstrapped by state transfer. *)

val install_suspicion :
  t ->
  period:Repro_sim.Simtime.t ->
  ?stall_threshold:int ->
  ?departure_threshold:int ->
  until:Repro_sim.Simtime.t ->
  unit ->
  unit
(** Watchdog-driven eviction: sample every member each [period], feed
    {!Suspicion.observe} (a member is [alive] if any packet from it was
    heard this interval; the backlog is the other members' outstanding
    work), kick the stalled, and propose an eviction for one judged
    departed. Sampling pauses while a barrier is in progress, and the
    periodic check disarms after [until]. *)

val run : ?until:Repro_sim.Simtime.t -> ?max_events:int -> t -> unit
(** Drive the engine ({!Repro_sim.Engine.run}). *)

val settle : ?limit:Repro_sim.Simtime.t -> t -> bool
(** Run until no barrier, quiesce or state transfer is in progress
    anywhere and every member entity is drained (nothing buffered,
    undelivered or queued), or until [limit] (default 10s) of virtual time
    passes without reaching it; [false] also when the event queue drains
    with work still outstanding (a liveness bug). *)

val deliveries : t -> node:int -> (int * Repro_pdu.Pdu.data) list
(** Everything [node]'s application delivered, oldest first, each tagged
    with the epoch whose entity delivered it. *)

val recorded : t -> Repro_core.Cluster.recording
(** What the entities did ({!Repro_core.Cluster.record}), into the
    medium's trace with {!crash}/{!revive} events: slots are node ids. *)

val tag_source : t -> int -> int * int
(** [(epoch, source node)] of a recorded tag; its
    {!Repro_core.Cluster.key_of_tag} source is one per (epoch, node). *)

(** {2 Counters} (mirrored to the registry when one is configured) *)

val view_changes : t -> int
(** Committed view changes. *)

val state_transfer_bytes : t -> int
(** Checkpoint bytes shipped in STATE frames, resends included. *)

val stale_epoch_drops : t -> int
(** Data-plane PDUs dropped by the epoch (cid) guard. *)

val repair_pdus : t -> int
(** PDUs pushed in barrier REPAIR frames. *)

val evictions : t -> int
(** Eviction proposals raised by the suspicion policy. *)
