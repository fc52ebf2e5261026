(** The churn runner: run a {!Plan} against a dynamic-membership
    {!Repro_member.Group} and check that the CO service survives it.

    Fixed-membership plans run on the scenario runner instead
    ([Repro_scenario.Scenario.of_plan] compiles one, [Repro_scenario.Runner]
    runs it and renders the one CO verdict). *)

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
