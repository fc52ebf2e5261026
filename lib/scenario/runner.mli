(** Run a compiled scenario under each protocol and measure PAC curves.

    One run: build the protocol's cluster over the compiled topology, arm
    a seeded {!Repro_fault.Injector} on its medium to replay the compiled
    plan (the same interpreter for every protocol: CO renders corruption
    through its codec, the baselines see a corrupted copy as a drop),
    schedule the workload (skipping submissions whose source is down at
    fire time — identically across protocols, since the down-schedule is
    the same), drive the engine to
    twice the scenario horizon, and fold every observer's deliveries into
    a {!Repro_harness.Pac} curve. CO runs additionally get the exact
    causal-order oracle over the observers, so the acceptance property
    "exact order holds whenever PAC reports 1.0" is checkable. *)

type protocol = Co | Cbcast | Tobcast

val protocol_name : protocol -> string
val protocol_of_name : string -> protocol option
val all_protocols : protocol list

type result = {
  protocol : protocol;
  curve : Repro_harness.Pac.curve;
  oracle : Repro_harness.Oracle.report option;
      (** CO only: service-property report over the observers (report
          entity numbers are positions in [observers]). *)
  causal_ok : bool;
      (** CO: no duplicate / FIFO / causal violations at any observer.
          Baselines: vacuously true (their order guarantees differ). *)
  stalled : int;  (** CBCAST only: messages parked forever. *)
  submitted : int;  (** Messages actually broadcast (down sources skip). *)
  events : int;  (** Engine events executed. *)
  latencies_ms : float list;
      (** Raw (delivery − send) samples over the observers, kept so the
          curve can be re-evaluated exactly on a shared grid. *)
}

val run :
  ?max_events:int ->
  compiled:Scenario.compiled ->
  seed:int ->
  protocol ->
  result
(** [max_events] defaults to 5 million. The [seed] feeds the network and
    the fault injector; equal [(compiled, seed, protocol)] triples produce
    structurally equal results. *)

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
