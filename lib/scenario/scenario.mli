(** Seeded, composable scenario DSL.

    A scenario declares a workload shape, a delay topology, a loss model,
    partition windows and a churn schedule; {!compile} turns the
    declaration plus a seed into concrete artifacts — a
    {!Repro_sim.Topology.t}, a {!Repro_harness.Workload} schedule and a
    {!Repro_fault.Plan.t} — so the exact same scenario drives CO (on a
    cluster, or on the membership group when it churns) and every
    baseline ({!Runner}), under the deterministic sim or a [Udp_cluster]
    harness. Equal [(scenario, seed)] pairs compile to
    identical artifacts, which is what lets the PAC curve gate demand
    byte-identical outputs across runs. *)

module Simtime = Repro_sim.Simtime

type workload_shape =
  | Continuous of { per_entity : int; interval : Simtime.t }
      (** The paper's uniform file-transfer workload. *)
  | Bursty of { burst_size : int; burst_gap : Simtime.t; bursts : int }
      (** Random-entity back-to-back bursts (buffer-overrun stress). *)
  | Hotspot of {
      hot : int;
      hot_share : float;
      total : int;
      interval : Simtime.t;
    }  (** One entity originates [hot_share] of all traffic. *)
  | Zipf of { exponent : float; total : int; interval : Simtime.t }
      (** Sender rank [r] originates a share proportional to
          [1/(r+1)^exponent]; deterministic, so the realized frequencies
          match the declared skew exactly. *)
  | Diurnal of {
      period : Simtime.t;
      cycles : int;
      peak_interval_ms : float;
      trough_interval_ms : float;
    }  (** Sinusoidal load curve between trough and peak rates. *)

type delay_shape =
  | Uniform_delay of Simtime.t  (** The paper's single-segment Ethernet. *)
  | Wan of {
      clusters : int list;  (** Site sizes; must sum to the scenario [n]. *)
      local_lo : Simtime.t;
      local_hi : Simtime.t;  (** Intra-site one-way delay range. *)
      cross_lo : Simtime.t;
      cross_hi : Simtime.t;  (** Inter-site one-way delay range. *)
      asymmetry : float;
          (** Max ratio between the two directions of an inter-site pair
              (1.0 = symmetric). Intra-site pairs stay symmetric. *)
    }

type loss_shape =
  | No_loss
  | Iid of { p : float; start : Simtime.t; stop : Simtime.t }
      (** A window of iid per-copy loss; healed at [stop]. *)
  | Gilbert_elliott of {
      p_good_bad : float;  (** Per-[step] transition into the bad state. *)
      p_bad_good : float;  (** Per-[step] transition back. *)
      loss_good : float;
      loss_bad : float;  (** Per-copy loss probability in each state. *)
      step : Simtime.t;  (** Markov-chain granularity. *)
      stop : Simtime.t;  (** Healed (loss 0) from here on. *)
    }
      (** Correlated (bursty) loss: a seeded two-state Markov chain walked
          at [step] granularity and compiled into [Loss] plan events at
          state transitions. *)

type churn_event = { at : Simtime.t; node : int; kind : [ `Join | `Leave ] }
(** A node with a [`Join] first event starts the run outside the group
    and joins at [at]; [`Leave] takes it out (to the baselines: medium
    silence). Node 0 must never churn (it is the tobcast sequencer and
    the stable observer anchor). *)

type t = {
  name : string;
  description : string;
  n : int;
  workload : workload_shape;
  delays : delay_shape;
  loss : loss_shape;
  partitions : (Simtime.t * int list list * Simtime.t) list;
      (** [(start, groups, stop)] windows; disjoint groups, windows must
          not overlap (the plan's [Heal] is global). *)
  churn : churn_event list;
  horizon : Simtime.t;
      (** Every fault heals strictly before this instant; runners drain
          past it. *)
}

type compiled = {
  scenario : t;
  topology : Repro_sim.Topology.t;
  workload : Repro_harness.Workload.entry list;
  plan : Repro_fault.Plan.t;  (** Valid per {!Repro_fault.Plan.validate}. *)
  observers : int list;
      (** Entities that never [Join]/[Leave] — the PAC obligation set is
          [messages × observers]. *)
  initially_down : int list;  (** Nodes whose first churn event is a join. *)
}

val compile : seed:int -> t -> compiled
(** Deterministic: equal [(seed, t)] give structurally equal outputs.
    @raise Invalid_argument on malformed scenarios (bad sizes, bounds,
    overlapping partition windows, churn on node 0, events at/after the
    horizon — everything {!Repro_fault.Plan.validate} would reject). *)

val of_plan : n:int -> per_entity:int -> Repro_fault.Plan.t -> compiled
(** A fault plan (e.g. one of {!Repro_fault.Plan.all} or [churn_all]) as
    a compiled scenario: [n] entities on a uniform 1ms LAN, the plan
    replayed verbatim, observers and initially-down nodes derived as
    {!compile} does, and [per_entity] submissions per entity, the k-th of
    entity [src] at [2ms + span·k/per_entity + (137·src + 11)µs]; [span]
    is [8ms·per_entity], or 60% of the horizon for a
    {!Repro_fault.Plan.churning} plan. The [scenario] record carries the
    plan's name, description and horizon; its fault fields stay empty
    (the plan is given, not compiled) and its workload shape is the
    nominal [Continuous] cadence [span/per_entity].
    @raise Invalid_argument if the plan fails {!Repro_fault.Plan.validate}
    against [n] or every entity churns. *)

(** {2 Named scenarios} *)

val burst_storm : t
(** n=5: back-to-back bursts over a uniform LAN, a mid-run 2/3 partition.
    Loss-free once healed — CO must reach terminal probability 1.0. *)

val wan_hotspot : t
(** n=6, two 3-site WAN with asymmetric inter-site delays; entity 1
    originates 60% of the traffic. *)

val flaky_wan : t
(** n=5, two-site WAN under Gilbert–Elliott correlated loss. *)

val zipf_spray : t
(** n=6 Zipf-skewed senders over a LAN with an iid loss window. *)

val churn_wave : t
(** n=5 diurnal load; node 3 leaves mid-run and rejoins later. *)

val isolate_wave : t
(** [churn_wave] with node 3 partitioned off (40–110ms) instead of churned. *)

val builtins : t list
val names : string list
val find : string -> t option
