(** The one fault interpreter: the only code that turns a {!Plan.action}
    into medium behaviour, for every protocol and both transports.

    One injector instance holds the {e current} fault state (who is down,
    the partition, the loss / corruption / duplication probabilities, the
    per-entity stall factors) plus a seeded PRNG. Each copy on the medium
    gets one verdict — down, partition, loss, corruption, duplication,
    drawn in that fixed order — and a renderer turns it into the copies
    actually offered. The renderers differ only in how a corrupted copy is
    rendered:

    - {!on_pdu} plugs into the simulator
      ({!Repro_sim.Network.set_fault_hook}) for CO; corruption there
      round-trips the PDU through {!Repro_pdu.Codec} with one random bit
      flipped, so a corrupted copy survives only if the codec (checksum)
      fails to catch it;
    - {!on_datagram} is the same verdict over raw bytes for the UDP
      transport ({!Repro_transport.Udp_cluster.set_fault_hook}); there a
      corrupted datagram is passed through mangled and the receiver's
      decode path rejects it;
    - {!on_frame} serves any payload the injector can't re-encode (the
      baselines' messages, membership control frames): a corrupted copy
      is dropped;
    - {!service_delay} plugs into
      {!Repro_sim.Network.set_service_hook} to model slow-entity stalls.

    Fault state changes by {!apply}ing {!Plan.action}s. [Crash]/[Restart]
    only flip the injector's down flag (the medium stops carrying copies
    to or from a dead NIC) — actually crashing the entity is the caller's
    job (the scenario runner, [Repro_scenario.Runner], pairs each with
    {!Repro_core.Cluster.crash}/[restart] for CO, or with the membership
    group's crash/revive). [Join]/[Leave] mean the same to the medium: the
    node is up or down. Membership changes themselves are the group's job
    (the runner hands them to it instead when CO runs on a group).

    The verdict stream is seeded with {!create}'s [seed] as given; a
    caller whose seed also feeds another stream may salt it first (the
    runner does on the group). *)

type t

type stats = {
  crash_drops : int;  (** Copies dropped to/from a down entity. *)
  partition_drops : int;
  loss_drops : int;
  corrupt_dropped : int;
      (** Bit-flipped copies caught: rejected by the codec, dropped as an
          opaque frame, or (datagram path) forwarded for the receiver's
          decoder to reject. *)
  corrupt_passed : int;
      (** Bit-flipped copies that still decoded (checksum miss) and were
          delivered mangled. Expected 0 with the checksummed codec. *)
  duplicated : int;  (** Copies delivered twice. *)
}

val create :
  ?wire:Repro_core.Config.wire_version -> n:int -> seed:int -> unit -> t
(** [seed] seeds the verdict stream as given; equal seeds and equal call
    sequences give equal verdicts. [wire] (default
    {!Repro_core.Config.default}'s) selects the codec the corruption path
    frames with; the verdict is wire-independent because both codecs'
    checksums reject every single-bit flip. *)

val n : t -> int

val apply : t -> Plan.action -> unit
(** Update the fault state. [Stall]/[Unstall] take effect via
    {!service_delay}; everything else via the copy hooks. *)

val is_down : t -> int -> bool
val stats : t -> stats
val faults_active : t -> bool
(** Any fault currently armed (entity down, partition installed, nonzero
    probability, or stall in place)? False once a plan has fully healed. *)

val on_pdu : t -> dst:int -> src:int -> Repro_pdu.Pdu.t -> Repro_pdu.Pdu.t list
val on_datagram : t -> dst:int -> src:int -> bytes -> bytes list

val on_frame : t -> dst:int -> src:int -> 'a -> 'a list
(** The same verdict for an opaque frame: zero, one or two copies of it.
    A corruption draw drops the copy — modeling the receiver's check
    rejecting a mangled frame — and is counted in [corrupt_dropped]. *)

val service_delay : t -> dst:int -> Repro_sim.Simtime.t -> Repro_sim.Simtime.t

val pp_stats : Format.formatter -> stats -> unit
