(** Run a compiled scenario under each protocol, measure PAC curves, and
    render the one CO verdict.

    One run: build the protocol's cluster over the compiled topology, arm
    a seeded {!Repro_fault.Injector} on its medium to replay the compiled
    plan (the same interpreter for every protocol: CO renders corruption
    through its codec, the baselines see a corrupted copy as a drop; for
    CO, [Crash]/[Restart] also crash-stop and restore the entity from its
    checkpoint, while the baselines see them as silence, as they do
    [Join]/[Leave]), schedule the workload (skipping submissions whose
    source is down at fire time — identically across protocols, since the
    down-schedule is the same), drive the engine to twice the scenario
    horizon, and fold every observer's deliveries into a
    {!Repro_harness.Pac} curve.

    CO runs are always instrumented (into [registry]) and carry the {!co}
    details behind {!ok}: the exact service-property oracle over the
    observers that are up at the end, convergence, quiescence and the
    trace lint. Fault plans ({!Scenario.of_plan}) and named scenarios
    ({!Scenario.compile}) take this same path. CO runs on a
    {!Repro_core.Cluster} watched by a {!Repro_fault.Watchdog} up to the
    horizon, or, under a {!Repro_fault.Plan.churning} plan, on a
    {!Repro_member.Group} without the initially-down nodes: [Join]/[Leave]
    become proposals, [Crash]/[Restart] crash and revive the node,
    suspicion (10ms period, 3 misses) evicts up to the horizon, and the
    run ends with {!Repro_member.Group.settle}. There [submitted] counts
    the submissions the group accepted. *)

type protocol = Co | Cbcast | Tobcast

val protocol_name : protocol -> string
val protocol_of_name : string -> protocol option
val all_protocols : protocol list

(** What a CO run on the membership group adds. There {!co}'s [live]
    observers are members, [report] owes what never-crashed sources sent
    plus any crashed source's PDU a live observer got, [converged] is
    per-epoch agreement among never-crashed nodes, [quiescent] is
    {!Repro_member.Group.settle}, [unsent] counts never-crashed sources,
    and the watchdog and span fields stay 0. *)
type membership = {
  final_epoch : int;
  members : int list;  (** The final view. *)
  view_changes : int;
  evictions : int;
  state_transfer_bytes : int;
  repair_pdus : int;
  stale_epoch_drops : int;
  refused : int;  (** Submissions fenced by a barrier or from non-members. *)
  epoch_isolated : bool;  (** Delivery epochs never go down nor cross. *)
}

type co = {
  live : int list;  (** Observers up at the end of the run, ascending. *)
  report : Repro_harness.Oracle.report;
      (** Service-property report over [live] (report entity numbers are
          positions in [live]); its [expected] is the data PDUs sent. *)
  unsent : int;  (** Taken submissions never sent as a data PDU. *)
  delivery_orders : (int * int) list array;
      (** Per live observer (positions follow [live]): the exact
          (src, seq) delivery order — the observational trace the
          wire-equivalence suite compares across codec versions. *)
  converged : bool;  (** All live observers delivered the same set. *)
  quiescent : bool;
      (** No undelivered data, parked PDUs or queued requests at any live
          observer. *)
  lint_issues : Repro_check.Trace_lint.issue list;
      (** The recorded trace's lint findings (deliveries inside a crash
          window included). *)
  ret_retries : int;  (** RET retry-timer firings (backoff steps), summed. *)
  backoff_samples : int;
      (** Observations in the registry's [co_ret_backoff_us] histograms. *)
  recoveries : int;  (** Watchdog kicks issued. *)
  delay_attribution : Repro_obs.Critpath.summary option;
      (** Per-cause decomposition of delivery latency, present iff the run
          was traced. Crashed entities contribute to its [abandoned]
          count; spans never stitch across an entity's incarnations. *)
  spans_abandoned : int;
      (** Receipt-ladder spans cut short by entity crashes. *)
  membership : membership option;  (** Present iff CO ran on a group. *)
}

type result = {
  protocol : protocol;
  curve : Repro_harness.Pac.curve;
  co : co option;  (** CO only. *)
  causal_ok : bool;
      (** CO: no duplicate / FIFO / causal violations at any live
          observer. Baselines: vacuously true (their order guarantees
          differ). *)
  stalled : int;  (** CBCAST only: messages parked forever. *)
  submitted : int;
      (** Workload submissions fired: entries whose source was up at fire
          time (CO on a group: those it accepted). Equal across protocols
          for one compiled fixed-membership scenario. *)
  events : int;  (** Engine events executed. *)
  latencies_ms : float list;
      (** Raw (delivery − send) samples over the observers, kept so the
          curve can be re-evaluated exactly on a shared grid. *)
  stats : Repro_fault.Injector.stats;  (** What the injector did. *)
}

val ok : result -> bool
(** The CO verdict: something was submitted, some observer is live at the
    end, the oracle is clean over the live observers (every owed PDU
    delivered exactly once, FIFO and causal order kept), nothing went
    unsent, the run converged and is quiescent, the trace lint is clean
    and epochs stayed isolated. Baselines carry no verdict: [true]. *)

val run :
  ?max_events:int ->
  ?wire:Repro_core.Config.wire_version ->
  ?tracing:bool ->
  ?registry:Repro_obs.Registry.t ->
  compiled:Scenario.compiled ->
  seed:int ->
  protocol ->
  result
(** [max_events] defaults to 5 million. The [seed] feeds the network and
    the fault injector; equal [(compiled, seed, protocol)] triples produce
    structurally equal results. CO only: [wire] (default
    {!Repro_core.Config.default}'s) selects the codec the cluster and
    injector frame with, and two runs differing only in [wire] must be
    observationally identical; [tracing] (default
    [Config.default.tracing]) turns on span recording and fills
    [delay_attribution] without changing the run (not on a group);
    [registry] receives the run's telemetry (a private one when
    omitted). *)

val pp : Format.formatter -> result -> unit
(** One line of counts, then for CO the verdict and what it rests on. *)

val deadline_grid : Scenario.compiled -> result list -> float list
(** Shared deadline ladder over the pooled latencies of all runs plus the
    scenario horizon (see {!Repro_harness.Pac.deadline_grid}); curves in
    [results] are re-evaluated on it by {!rescale}. *)

val rescale : deadlines_ms:float list -> result -> result
(** Recompute the result's curve on a shared grid (probabilities are
    re-derived from the stored latencies, so this is exact). *)

val artifact_json :
  compiled:Scenario.compiled -> seed:int -> result list -> string
(** The [BENCH_pac_<name>.json] document: scenario metadata, observers,
    shared deadline grid, one curve per protocol. Deterministic
    formatting — byte-identical for equal inputs. *)

val to_registry :
  Repro_obs.Registry.t -> compiled:Scenario.compiled -> result list -> unit
(** Export every curve as [co_pac_*] series labeled by scenario and
    protocol. *)
