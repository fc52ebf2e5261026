(** The CO protocol over real UDP sockets.

    The {!Repro_core.Entity} state machine is transport-agnostic; this module
    runs a whole cluster of them over loopback UDP datagrams in real time —
    one socket per entity, PDUs serialized with {!Repro_pdu.Codec}, timers
    against the wall clock, a single-threaded [select] event loop. UDP
    supplies genuine reordering-free-but-lossy per-channel semantics close to
    the paper's MC service; an optional iid drop filter adds deterministic
    loss for tests.

    This is the "production" face of the library: what a deployment on a real
    LAN segment would look like, minus multicast group management. *)

type t

val create :
  ?registry:Repro_obs.Registry.t ->
  ?loss:float ->
  ?seed:int ->
  ?config:Repro_core.Config.t ->
  ?wires:Repro_core.Config.wire_version array ->
  ?traced:bool array ->
  n:int ->
  unit ->
  t
(** Bind [n] UDP sockets on ephemeral loopback ports and attach one CO entity
    to each. [loss] drops incoming datagrams iid (before decode, never for an
    entity's own loopback, which is delivered in-process). [registry]
    enables receipt-ladder telemetry: every entity gets the
    {!Repro_core.Probe} wiring, stamping {e monotonic-clock} microseconds
    into the {!recorder}'s histograms (see {!sync_registry}); the one
    wall-clock stamp the cluster keeps is {!started_at_wall}, for log
    headers.

    [wires] sets the codec version each node {e frames egress with}
    (default: every node uses [config.wire]); ingress always dispatches on
    the version byte, so mixed-version clusters interoperate during a
    rollout. A v2 node coalesces each burst of outgoing DATA PDUs to the
    same destination into one batch datagram; a v1 node frames one PDU per
    datagram.

    [traced] sets, per node, whether v2 DATA batches are framed as traced
    0xB3 datagrams carrying trace ids (default: every node follows
    [config.tracing]); it has no effect on a v1 node's egress. Untraced
    receivers decode 0xB3 and discard the ids, so traced/untraced clusters
    interoperate too. If any node is traced (or [config.tracing] is set) the
    {!recorder} also keeps completed spans.

    @raise Invalid_argument if [wires] or [traced] has length <> [n].
    @raise Unix.Unix_error if sockets cannot be created. *)

val size : t -> int

val submit : t -> src:int -> string -> unit
(** Issue a DT request at entity [src]. The entity sequences it at once
    (or queues it behind the flow window); its datagrams wait in [src]'s
    egress queue and leave at the next {!step}. *)

val step : t -> timeout_s:float -> bool
(** Run one event-loop iteration, which sends first and then receives:
    fire due timers; flush every member's egress queue (what {!submit},
    the timers and the previous step's ingress queued, with the loopback
    self-copies and whatever they produce); then wait up to [timeout_s],
    capped at the next timer deadline, for datagrams and process them.
    This flush is the only place egress leaves, apart from the cut in
    {!commit_view_change}. Each ready member's socket is drained until it
    would block; everything decoded from that step's datagrams reaches
    the member's entity as one {!Repro_core.Entity.receive_batch}, in
    arrival order, so the protocol's post-processing and confirmation
    decision run once per member per step. What that ingress queues stays
    queued until the next step. Returns [false] when nothing happened (no
    timer fired, no datagram arrived). *)

val run_for : t -> seconds:float -> unit
(** Drive the loop for a real-time duration, measured on the monotonic
    clock (immune to wall-clock steps). *)

val run_until_quiescent : t -> max_seconds:float -> bool
(** Drive the loop until every egress queue is empty and every entity is
    drained ({!Repro_core.Entity.backlog} [= 0]; then drain briefly), or
    the deadline passes. Returns whether quiescence was reached. *)

(** An administrative membership change. [Add_node] binds a fresh socket
    and joins it as the new view's last rank; [Remove_node l] closes rank
    [l]'s socket and shifts higher ranks down. *)
type change = Add_node | Remove_node of int

val reconciled : t -> bool
(** The view-change barrier's commit precondition: every egress queue is
    empty and the entities meet {!Repro_member.Group.reconciled} (all
    drained, all REQ vectors equal). Datagrams may still sit in kernel
    buffers — after a cut those are duplicates of PDUs every member
    already accepted, which the next epoch's cid guard fences off. *)

val commit_view_change : t -> change -> (unit, string) result
(** Commit a membership change: close the epoch and rebuild each member of
    the next view from the blob {!Repro_member.Group.bootstrap} builds —
    the same cut the simulated group and the model checker use, with the
    change described in rank space. A joiner restores the sponsor's
    (rank 0's) blob — the co-checkpoint-v1 state transfer, shipped
    in-process since its socket is born here. The closing epoch's timers
    are abandoned (a dead epoch's heartbeat or RET retry never fires into
    the new view) and every new entity is {!Repro_core.Entity.kick}ed.

    This is the {e mechanism} half of membership over real sockets: the
    caller plays coordinator and must first drive the cluster to the
    barrier ({!run_until_quiescent}); [Error] reports an unmet
    {!reconciled} precondition and commits nothing. The full timer-driven
    barrier protocol (quiesce/reconcile/repair, suspicion-driven eviction)
    lives in {!Repro_member.Group} over the simulated medium.

    @raise Invalid_argument on a closed cluster, an out-of-range rank, or
    a removal that would shrink the view below 2. *)

val epoch : t -> int
(** Committed membership epoch (0 at creation). *)

val view_changes : t -> int
(** Committed view changes. Each commit also counts into
    [co_view_changes_total{epoch}] when the cluster has a registry
    ({!Repro_member.Group.count_view_change}). *)

val deliveries : t -> entity:int -> Repro_pdu.Pdu.data list
(** Application deliveries at [entity], in causal delivery order — across
    epochs for a member that survived view changes. *)

val entity : t -> int -> Repro_core.Entity.t

val port : t -> int -> int
(** UDP port entity [i] is bound to on 127.0.0.1 (e.g. to point an external
    packet source, or a test injecting hostile datagrams, at it). *)

val set_fault_hook : t -> (dst:int -> src:int -> bytes -> bytes list) -> unit
(** [set_fault_hook t f]: every incoming datagram is first mapped through
    [f ~dst ~src dg] ([src] is the sending entity resolved from the
    datagram's source address, or [-1] if external), which returns the
    copies actually processed: [[]] discards it, a mangled copy models
    in-flight corruption (the decode path then rejects it via the codec
    checksum, counted in {!decode_errors}), several copies model
    duplication. This is the same contract as the simulator's
    {!Repro_sim.Network.set_fault_hook}, so one
    {!Repro_fault.Injector.on_datagram} closure serves both transports.
    The hook runs per datagram, before injected loss and decoding; the
    copies it returns join the step's batch for [dst] (see {!step}).
    Replaces any previous hook. *)

val clear_fault_hook : t -> unit

val datagrams_sent : t -> int
val datagrams_dropped : t -> int

val datagrams_faulted : t -> int
(** Datagrams the fault hook discarded outright. *)

val decode_errors : t -> int
(** Datagrams the decode path rejected (one per bad datagram, however many
    PDUs it claimed to carry). *)

val wirestats : t -> Repro_obs.Wirestats.t
(** Egress wire accounting: datagrams, PDUs, total and header bytes put on
    the wire (loopback self-copies excluded — they never serialize). The
    [wire] label is the uniform version name, or ["mixed"]. *)

val recorder : t -> Repro_obs.Trace_ctx.t option
(** The receipt-ladder recorder, present iff [create] got a [?registry] or
    tracing is on ([config.tracing] or any [traced] node). It records
    histograms into the registry when given one, and keeps completed
    spans (trace ids salted from [seed]) when tracing — feed those to
    {!Repro_obs.Critpath} for delay attribution and Perfetto export.
    {!commit_view_change} cuts it: the closed epoch's stamps are dropped
    before the ranks remap. *)

val started_at_wall : t -> float
(** [Unix.gettimeofday] at creation — the run's single wall-clock stamp,
    kept for log/report headers only. All probe stamps and deadlines use
    the monotonic clock and are only meaningful relative to each other. *)

val sync_registry : t -> unit
(** Mirror per-entity protocol counters, the datagram totals, and the
    {!wirestats} gauges into the registry passed at [create]. Idempotent;
    no-op without one. *)

val close : t -> unit
(** Close all sockets. The [t] must not be used afterwards. *)
