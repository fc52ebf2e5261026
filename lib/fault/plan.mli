(** Deterministic fault plans.

    A plan is a named, time-ordered script of fault actions applied to a
    running cluster: entity crash-stop and restart, network partitions,
    windows of iid loss / datagram corruption / duplication, and
    slow-entity stalls. Plans carry no randomness themselves — the
    probabilistic actions only set parameters of the seeded
    {!Injector.t} — so a (plan, seed) pair replays bit-identically.

    Every built-in plan heals all of its faults before {!t.horizon}. A
    fixed-membership plan runs as a scenario
    ([Repro_scenario.Scenario.of_plan]) on the scenario runner, which
    drains the cluster to twice the horizon and then renders the CO
    verdict over the observers that are up; a {!churning} plan runs the
    same way, with CO hosted on the membership group. *)

type action =
  | Crash of int  (** Crash-stop an entity (checkpointing to stable storage). *)
  | Restart of int  (** Rebuild it from the checkpoint and start catch-up. *)
  | Partition of int list list
      (** Install disjoint groups; copies crossing group boundaries are
          dropped. Entities left out of every group are isolated. *)
  | Heal  (** Remove the partition. *)
  | Loss of float  (** Set the iid per-copy drop probability (0 heals). *)
  | Corrupt of float
      (** Set the per-copy bit-flip probability (0 heals). A corrupted
          copy survives only if it still decodes — with the codec
          checksum it is rejected and counted instead. *)
  | Duplicate of float  (** Set the per-copy duplication probability. *)
  | Stall of { entity : int; factor : int }
      (** Multiply the entity's per-message service time by [factor]. *)
  | Unstall of int  (** Restore normal service time. *)
  | Join of int
      (** Membership churn. To the medium ({!Injector.apply}) the node
          comes up; on the membership group it proposes to join,
          bootstrapped by checkpoint state transfer. *)
  | Leave of int
      (** To the medium the node goes silent; on the membership group
          the member proposes a voluntary leave. *)

type event = { at : Repro_sim.Simtime.t; action : action }

type t = {
  name : string;
  description : string;
  events : event list;  (** Sorted by time, ascending. *)
  horizon : Repro_sim.Simtime.t;
      (** All faults are healed strictly before this instant; the runner
          keeps its liveness watchdog armed until here and then lets the
          run drain to quiescence. *)
}

val validate : n:int -> t -> unit
(** @raise Invalid_argument if any event references an entity outside
    [0..n-1], a probability outside [0,1], a stall factor < 1, partition
    groups that overlap, unsorted events, or an event at/after the
    horizon. *)

val pp_action : Format.formatter -> action -> unit

(** {2 Built-in plans} — all designed for an [n = 4] cluster. *)

val crash_restart : t
(** Entity 1 crash-stops mid-run and rejoins from its checkpoint. *)

val partition_heal : t
(** The cluster splits \{0,1\} / \{2,3\} and later heals. *)

val loss_burst : t
(** A 30% iid loss window over the whole medium. *)

val slow_stall : t
(** Entity 2 serves messages 50x slower for a while. *)

val corruption : t
(** A window where 25% of copies take a random bit flip in transit. *)

val duplication : t
(** A window where 30% of copies arrive twice. *)

val mayhem : t
(** Loss, a crash and a partition overlapping — the kitchen sink. *)

val all : t list
(** The fixed-membership plans above — everything
    [Repro_scenario.Scenario.of_plan] accepts. *)

(** {2 Churn plans} — for the membership group: 5 endpoints, node 4 in
    reserve as the joiner where a plan scripts a join. *)

val churn_join_leave : t
(** Node 4 joins mid-run, node 1 later leaves voluntarily. *)

val churn_evict : t
(** Node 3 crash-stops under a loss window and is evicted by suspicion. *)

val churn_mayhem : t
(** Join, voluntary leave and a crash-driven eviction under loss. *)

val churn_all : t list

val churning : t -> bool
(** Does the plan change the membership: script a [Join]/[Leave], or
    crash-stop a node it never restarts (a departure only eviction
    repairs)? Such plans only make sense against a dynamic-membership
    group. *)

val names : string list
val find : string -> t option
(** Looks up fixed-membership and churn plans alike. *)
