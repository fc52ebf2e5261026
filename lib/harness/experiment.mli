(** Experiment runner: drive a CO cluster over a workload, collect the
    numbers the paper's evaluation reports, and run the oracle. *)

type outcome = {
  n : int;
  submitted : int;  (** Data messages the workload produced. *)
  delivered_total : int;  (** Sum of data deliveries over entities. *)
  oracle : Oracle.report;
  tap_ms : Repro_util.Stats.summary;  (** Application-to-application delay. *)
  preack_ms : Repro_util.Stats.summary;
  ack_ms : Repro_util.Stats.summary;
  metrics : Repro_core.Metrics.t;  (** Aggregated over entities. *)
  transmissions : int;  (** Network copies put on the medium. *)
  losses : int;  (** Copies lost (all reasons). *)
  sim_end_ms : float;  (** Virtual time when the run went quiescent. *)
  events : int;  (** Engine events executed. *)
  ladder : Repro_obs.Trace_ctx.ladder option;
      (** Receipt-ladder latency snapshots (µs), present iff the run was
          instrumented. *)
  attribution : Repro_obs.Critpath.summary option;
      (** Per-cause delivery-delay decomposition, present iff
          [config.protocol.tracing]. When a registry is attached the
          [co_delay_attrib_us] histograms are populated too. *)
}

val run :
  ?max_events:int ->
  ?registry:Repro_obs.Registry.t ->
  ?on_cluster:(Repro_core.Cluster.t -> unit) ->
  config:Repro_core.Cluster.config ->
  workload:Workload.entry list ->
  unit ->
  Repro_core.Cluster.t * outcome
(** Build a cluster, apply the workload, run to quiescence (bounded by
    [max_events], default 20 million), and summarize. [registry] overrides
    [config.instrument], turning on receipt-ladder telemetry; counters are
    synced into it after the run. [on_cluster] fires after cluster creation
    and before the workload — the hook the CLI uses to arm periodic metric
    snapshots on the engine. *)

val shortfall : outcome -> int
(** Deliveries still owed: [submitted * n - delivered_total]. It counts
    every message the workload submitted, so a request that never left a
    flow-blocked queue shows here, while {!Oracle.report}'s [expected]
    counts only messages that were sent. [0] on a run that delivered
    everything everywhere. *)

val pdus_per_message : outcome -> float
(** Fresh protocol transmissions per application message — the paper's O(n)
    vs O(n²) traffic measure (E2). *)

val goodput : outcome -> float
(** Delivered data messages per simulated second (all entities combined). *)
