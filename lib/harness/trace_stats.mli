(** Post-hoc analysis of a simulation {!Repro_sim.Trace}.

    Turns the raw event stream into the quantities experiments report:
    per-entity loss counts and rates, inbox sojourn times (arrival →
    handled), and loss-reason breakdowns. *)

type per_entity = {
  entity : int;
  arrived : int;
  handled : int;
  dropped_overrun : int;
  dropped_injected : int;
  dropped_faulted : int;  (** Discarded by the medium's fault hook. *)
  delivered : int;
  mean_sojourn_ms : float;
      (** Mean time a transmission spent between arriving in the inbox and
          being processed (0 if nothing was handled). *)
  p50_sojourn_ms : float;  (** Median inbox sojourn (nearest-rank). *)
  p99_sojourn_ms : float;  (** Tail inbox sojourn — queueing pressure. *)
}

val per_entity : Repro_sim.Trace.t -> n:int -> per_entity array

val loss_rate : per_entity -> float
(** Dropped copies / (arrived + dropped); 0 when nothing was addressed to
    the entity. *)

val total_drops : Repro_sim.Trace.t -> int

val drop_breakdown : Repro_sim.Trace.t -> int * int * int
(** (overrun, injected, faulted). *)

val pp_per_entity : Format.formatter -> per_entity -> unit
