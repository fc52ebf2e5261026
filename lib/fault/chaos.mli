(** The chaos harness: run a {!Plan} against a simulated cluster and check
    that the CO service survives it.

    A run builds an [n]-entity cluster (instrumented into a metrics
    registry), wires a seeded {!Injector.t} into the medium, schedules a
    fixed workload plus the plan's fault script, arms the liveness
    {!Watchdog}, drives the engine past the plan horizon to quiescence,
    and then renders a verdict over the entities that are up at the end:

    - {b safety}: no duplicate deliveries, per-source FIFO order, no
      causal inversions (against the ground-truth happened-before
      relation), and the recorded trace passes the {!Repro_check}
      linter (which also rejects any delivery inside a declared crash
      window);
    - {b liveness after heal}: every broadcast data PDU is delivered at
      every live entity, all live entities converge to the same
      delivered set, and the cluster reaches protocol quiescence.

    The outcome also reports the RET retry/backoff activity so callers
    can assert the adaptive retransmission timer actually engaged. *)

type outcome = {
  plan : string;
  seed : int;
  wire : Repro_core.Config.wire_version;  (** Codec the run framed with. *)
  live : int list;  (** Entity ids up at the end of the run. *)
  expected : int;  (** Data PDUs the workload actually broadcast. *)
  delivery_orders : (int * int) list array;
      (** Per live entity (positions follow [live]): the exact (src, seq)
          delivery order — the observational trace the wire-equivalence
          suite compares across codec versions. *)
  report : Repro_harness.Oracle.report;
      (** Service-property report over the live entities; the report's
          entity numbers are positions in [live]. *)
  converged : bool;  (** All live entities delivered the same set. *)
  quiescent : bool;  (** No outstanding protocol work at any live entity. *)
  ret_retries : int;  (** RET retry-timer firings (backoff steps), summed. *)
  backoff_samples : int;
      (** Observations recorded in the [co_ret_backoff_us] histograms. *)
  recoveries : int;  (** Watchdog kicks issued. *)
  lint_issues : Repro_check.Trace_lint.issue list;
  stats : Injector.stats;
  delay_attribution : Repro_obs.Critpath.summary option;
      (** Per-cause decomposition of delivery latency, present iff the run
          was traced. Crashed entities contribute to its [abandoned]
          count; spans never stitch across an entity's incarnations. *)
  spans_abandoned : int;
      (** Receipt-ladder spans cut short by entity crashes
          ([co_spans_abandoned_total] over the run). *)
  ok : bool;  (** The full verdict above. *)
}

val run :
  ?n:int ->
  ?seed:int ->
  ?per_entity:int ->
  ?wire:Repro_core.Config.wire_version ->
  ?tracing:bool ->
  ?registry:Repro_obs.Registry.t ->
  Plan.t ->
  outcome
(** [run plan] executes [plan] with [n] entities (default 4), [per_entity]
    data submissions per entity (default 6) spread over the run's first
    ~50ms, and the given [seed] (default 1). [wire] (default
    {!Repro_core.Config.default}'s) selects the codec version the cluster
    and injector frame with; two runs differing only in [wire] must be
    observationally identical — the wire-equivalence suite asserts it.
    [tracing] (default [Config.default.tracing]) turns on the causal-trace
    recorder and fills [delay_attribution]; it must likewise never change
    the observable run. When [registry] is omitted a private one is
    created; pass one to inspect the full telemetry afterwards.
    @raise Invalid_argument if the plan fails {!Plan.validate} against
    [n]. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 Churn runs} — the same plan machinery over a dynamic-membership
    {!Repro_member.Group}. *)

type churn_outcome = {
  c_plan : string;
  c_seed : int;
  members : int list;  (** Final membership (global node ids). *)
  epochs : int;  (** Final epoch = committed view changes. *)
  view_changes : int;
  evictions : int;  (** Eviction proposals raised by suspicion. *)
  state_transfer_bytes : int;
  repair_pdus : int;
  stale_epoch_drops : int;
  submitted : int;  (** Workload submissions attempted. *)
  accepted : int;
      (** ... of which some entity took; the rest were fenced by a
          view-change barrier or refused as non-member/down. *)
  agreement : bool;
      (** Per-epoch convergence: every witness of an epoch (delivered in
          it, did not crash) saw the same payload set. *)
  epoch_isolated : bool;
      (** No cross-epoch delivery: every payload's submit-time epoch stamp
          matches the epoch of the entity that delivered it. *)
  settled : bool;  (** The run reached group quiescence after the horizon. *)
  c_stats : Injector.stats;
  c_ok : bool;
}

val run_churn :
  ?max_nodes:int ->
  ?seed:int ->
  ?per_member:int ->
  ?registry:Repro_obs.Registry.t ->
  Plan.t ->
  churn_outcome
(** [run_churn plan] executes a (possibly churning) plan against a group
    of [max_nodes] endpoints (default 5) whose epoch-0 members are every
    node the plan does not script a [Join] for. Every endpoint attempts
    [per_member] (default 6) submissions spread over the first ~60% of
    the horizon — payloads stamped with the submitter's epoch — while the
    plan's faults ride the seeded injector (loss, partitions, crashes;
    control frames are subject to the same verdicts) and scripted
    [Join]/[Leave] events become membership proposals. A suspicion
    watchdog (10ms period, 3-miss departure threshold) turns unhealed
    crashes into evictions. After the horizon the run drains to
    quiescence and the per-epoch convergence and epoch-isolation oracles
    render the verdict.
    @raise Invalid_argument if the plan fails {!Plan.validate} against
    [max_nodes]. *)

val pp_churn_outcome : Format.formatter -> churn_outcome -> unit
