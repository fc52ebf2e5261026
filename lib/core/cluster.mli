(** A simulated CO cluster: [n] entities over the MC network.

    Owns the discrete-event engine, the network, and one {!Entity.t} per
    node; instruments every logical PDU with send / pre-acknowledge /
    acknowledge / deliver timestamps so the experiments can report the
    paper's Tap (application-to-application delay), the 2R acknowledgment
    bound, and recovery behaviour. *)

type config = {
  n : int;
  protocol : Config.t;
  topology : Repro_sim.Topology.t;
  inbox_capacity : int;  (** Receiver buffer units (MC service). *)
  service_time : Repro_pdu.Pdu.t -> Repro_sim.Simtime.t;
      (** Receive-path processing cost per PDU (the Tco model). *)
  loss_prob : float;  (** Additional iid loss injection. *)
  seed : int;
  instrument : Repro_obs.Registry.t option;
      (** When set, the cluster registers receipt-ladder telemetry here:
          per-entity {!Probe} wiring feeds the {!recorder}'s histograms
          ([co_ladder_stage_seconds], [co_submit_queue_seconds],
          [co_deliver_batch_size]) plus per-entity
          [co_pdus_received_total] and [co_ret_backoff_us];
          {!sync_metrics} mirrors the protocol counters. With [None] (the
          default) and tracing off no probe is installed, which costs
          nothing on the hot paths. *)
}

val default_service_time : n:int -> Repro_pdu.Pdu.t -> Repro_sim.Simtime.t
(** A Tco model matching the paper's observation that per-PDU processing is
    O(n): a fixed cost plus a per-ACK-component cost ([40µs + 12µs·n] at the
    paper's mid-90s workstation scale). *)

val default_config : n:int -> config
(** Uniform 1ms topology, capacity 64, default service time, no injected
    loss. *)

(** {2 Recording} — what a sim host (this cluster, [Repro_member.Group])
    records of each entity it wires: first sends, timed deliveries,
    [Submitted]/[Delivered] trace events, ground-truth happened-before and
    Tap / pre-ack / ack samples, under host-chosen slots and tags. *)

type recording

val recording :
  slots:int -> Repro_sim.Engine.t -> Repro_sim.Trace.t -> recording

val record :
  recording ->
  slot:int ->
  self:int ->
  tag:(src:int -> seq:int -> int) ->
  Entity.actions ->
  (Entity.actions -> Entity.t) ->
  Entity.t
(** [record r ~slot ~self ~tag actions build] builds an entity over
    [actions] plus the recording and observes it. [self] is the id it
    sends as; [tag] names a PDU of its id space. *)

val recorded_deliveries :
  recording -> slot:int -> (Repro_sim.Simtime.t * int * Repro_pdu.Pdu.data) list
(** [(instant, tag, pdu)] per delivery, chronological. *)

val first_send : recording -> int -> Repro_sim.Simtime.t option

val sent_data : recording -> int list
(** Data tags, in first-send order. *)

val happened_before : recording -> Repro_clock.Causality.t
(** Over all sequenced PDUs, built from real send/acceptance events: what
    the oracle checks delivery orders against. *)

type t

val create : config -> t

val engine : t -> Repro_sim.Engine.t
val network : t -> Repro_pdu.Pdu.t Repro_sim.Network.t
val entity : t -> int -> Entity.t
val size : t -> int

val submit : t -> src:int -> string -> unit
(** Issue a DT request at the current virtual time. *)

val submit_at : t -> at:Repro_sim.Simtime.t -> src:int -> string -> unit

val run : ?until:Repro_sim.Simtime.t -> ?max_events:int -> t -> unit
(** Drive the engine. With neither bound, runs to quiescence: the protocol's
    timers stop re-arming once every entity has acknowledged all data. *)

(** {2 Crash-stop faults}

    An entity crash-stops and later rejoins from a checkpoint written to
    stable storage at crash time (the strongest recovery the paper's
    sending-log pruning supports: peers retain PDUs the crashed entity has
    not accepted — its frozen AL row holds the prune floor down — so a
    rejoiner that remembers its own REQ/SEQ position can always catch up
    through RET and anti-entropy; an amnesiac restart could neither avoid
    reusing sequence numbers nor request pruned history). *)

val crash : t -> id:int -> unit
(** Checkpoint the entity, then silence it: its handler discards arrivals,
    scheduled submissions are skipped, armed timers are disarmed, and a
    {!Repro_sim.Trace.Crashed} event is recorded.
    @raise Invalid_argument if already down or out of range. *)

val restart : t -> id:int -> unit
(** Rebuild the entity from its crash checkpoint (fresh object, same slot),
    record {!Repro_sim.Trace.Restarted}, and {!Entity.kick} it to start
    catch-up. Pre-crash deliveries and metrics recorded by the cluster are
    kept; the replacement entity's own counters restart from zero.
    @raise Invalid_argument if not down or out of range. *)

val is_down : t -> int -> bool

val live_ids : t -> int list
(** Entity ids currently up, ascending. *)

(** {2 Results} *)

val deliveries : t -> entity:int -> (Repro_sim.Simtime.t * Repro_pdu.Pdu.data) list
(** Chronological application deliveries at one entity. *)

val delivery_keys : t -> entity:int -> (int * int) list
(** [(src, seq)] of each delivery, in delivery order. *)

val delivery_latencies : t -> float list
(** Tap samples: (delivery − send) in milliseconds, across all entities and
    all delivered data PDUs. *)

val preack_latencies : t -> float list
(** (pre-acknowledgment − send) in ms across entities and sequenced PDUs. *)

val ack_latencies : t -> float list
(** (acknowledgment − send) in ms — the paper bounds this by 2R plus
    processing. *)

val aggregate_metrics : t -> Metrics.t
val entity_metrics : t -> int -> Metrics.t

val recorder : t -> Repro_obs.Trace_ctx.t option
(** The receipt-ladder recorder, present iff [config.instrument] is set or
    [config.protocol.tracing] is on. It records histograms into
    [config.instrument] when set, and keeps completed spans (trace ids
    salted from [config.seed]) when tracing — feed those to
    {!Repro_obs.Critpath} for delay attribution and Perfetto export.
    Its span discipline (opened/closed/open spans, close and order
    errors, crash abandonment) is kept either way. *)

val registry : t -> Repro_obs.Registry.t option
(** [config.instrument], for convenience. *)

val sync_metrics : t -> unit
(** Mirror the per-entity protocol counters (as
    [co_<field>_total{entity="i"}]), the medium's transmission/loss totals
    and the virtual clock into [config.instrument]. Idempotent — call before
    each exposition snapshot. No-op without instrumentation. *)

val trace : t -> Repro_sim.Trace.t

val data_tags : t -> int list
(** {!tag_of_key} tags of every application-data PDU broadcast so far, in
    first-send order. *)

val recorded : t -> recording
(** Slots are entity ids, tags {!tag_of_key}. *)

val tag_of_key : src:int -> seq:int -> int
(** Stable encoding of a logical PDU identity used as the trace tag. *)

val key_of_tag : int -> int * int
