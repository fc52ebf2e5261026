(** Exhaustive small-scope model checking of the CO entity state machine.

    The explorer drives [n] real {!Repro_core.Entity.t} instances (the
    production code, not a model of it) through {e every} interleaving of a
    finite event alphabet:

    - [Submit] — the next scripted application request (script order fixed,
      so later submissions can causally depend on earlier deliveries);
    - [Deliver] — hand one in-flight transmission to its destination;
    - [Drop] — lose one in-flight transmission (bounded by a drop budget;
      an entity's own loopback copy is undroppable, matching the MC
      medium);
    - [Fire] — run an entity's oldest pending timer;
    - [Cut] — commit the configured membership change (one [Join] or
      [Leave] per run). Enabled only once the epoch-0 script is spent and
      the members meet {!Repro_member.Group.reconciled} (equal REQ
      vectors, all protocol work drained) — the view-change barrier's
      commit precondition. The cut closes the epoch, rebuilds the next
      view's entities from {!Repro_member.Group.bootstrap} blobs — the
      shipping cut, not a copy of it (the joiner from the sponsor's bytes,
      as in the co-checkpoint-v1 state transfer) — and
      abandons the old timers, but deliberately leaves stale old-epoch
      copies in flight: delivering one after the cut exercises the
      entity-level cid guard, watched by the monitor's
      [no-cross-epoch-delivery] invariant.

    Time is frozen at 0: interleaving, not timing, is the state space, and
    timers become explicit events. After every transition the full
    {!Invariants} catalog runs on the stepped entity and the
    {!Invariants.Monitor} checks delivery order and monotonicity; the first
    violation aborts the search with its complete event schedule — a
    replayable counterexample.

    States are deduplicated by {!Repro_core.Entity.signature} digests
    (plus in-flight multisets and timer queues), and an optional sleep-set
    partial-order reduction prunes interleavings of provably independent
    (commuting) events. Exploration is replay-based: entities are mutable,
    so each DFS node re-executes its event prefix from a fresh system.

    Scope: [n] ∈ {2, 3} and 2–4 broadcasts explore in seconds to minutes;
    the [max_states]/[max_depth] budgets bound the worst case and set
    [truncated] when hit, so "0 violations" is only a proof of the
    small-scope theorem when [truncated = false]. *)

(** The membership change a run may commit (at most one per run). [Leave l]
    removes epoch-0 rank [l] (higher ranks shift down); [Join] adds a new
    member at the next view's last rank, bootstrapped by state transfer. *)
type churn = Join | Leave of int

type config = {
  n : int;  (** Epoch-0 cluster size (2 or 3 are practical). *)
  script : (int * string) list;
      (** [(src, payload)] submissions, issued in list order. *)
  churn : churn option;  (** Membership change to model-check, if any. *)
  post_script : (int * string) list;
      (** Submissions issued after the [Cut], with sources in {e new-view}
          ranks — new-epoch traffic interleaving with stale stragglers.
          Requires [churn]. *)
  max_drops : int;  (** Total loss budget across the schedule. *)
  max_fires : int;
      (** Total timer-fire budget across the schedule. Fires must be
          bounded like drops: the heartbeat re-arms itself and each fire
          can emit fresh traffic, so unbounded fairness regenerates the
          event alphabet forever. *)
  max_states : int;  (** Distinct-state budget; exceeding sets [truncated]. *)
  max_depth : int;  (** Schedule-length budget. *)
  por : bool;  (** Enable the sleep-set reduction. *)
  protocol : Repro_core.Config.t;
      (** Entity configuration. Must not use [Deferred] confirmation (its
          spacing test never passes under the frozen clock);
          {!default_config} uses [Immediate]. Set [fault] here to verify the
          checker catches seeded bugs. *)
  on_system : Repro_core.Entity.t array -> unit;
      (** Called on each freshly built entity array, after observers are
          attached, before any event replays. The explorer rebuilds the
          system once per explored path, so the hook fires once per replay —
          use it to attach external monitors (e.g. telemetry probes) that
          must see every path from its first event. [ignore] by default. *)
}

val default_config : n:int -> config
(** One broadcast per entity, no churn, no drops, no timer fires, POR on,
    [Immediate] confirmation, a tight window ([W = 2]) and a 200k-state
    budget. Budget drops and fires explicitly per run — each fire roughly
    multiplies the state count by ten. *)

type event =
  | Submit
  | Deliver of { dst : int; pdu : string }  (** [pdu] is the wire encoding. *)
  | Drop of { dst : int; pdu : string }
  | Fire of { entity : int }
  | Cut  (** Commit the configured membership change. *)

type violation_report = {
  violation : Invariants.violation;
  schedule : string list;
      (** Human-readable event prefix reproducing the violation. *)
}

type outcome = {
  states : int;  (** Distinct states explored. *)
  transitions : int;
  max_depth_seen : int;
  truncated : bool;  (** A budget was exhausted; coverage is partial. *)
  violation : violation_report option;  (** First violation, if any. *)
}

val run : config -> outcome
(** Explore exhaustively (up to the budgets), stopping at the first
    violation. @raise Invalid_argument on a malformed config. *)

val pp_outcome : Format.formatter -> outcome -> unit
