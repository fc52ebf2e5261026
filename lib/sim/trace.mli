(** Execution trace of a simulation run.

    Every network-level and application-level happening is recorded with its
    virtual time. The oracles replay traces to (a) build the ground-truth
    happened-before relation and (b) check the paper's service properties
    (information-preserved, local-order-preserved, causality-preserved). *)

type drop_reason =
  | Overrun  (** Receiver inbox was full — the MC network's organic loss. *)
  | Injected  (** iid loss injection. *)
  | Faulted
      (** Discarded by the medium's fault hook
          ({!Network.set_fault_hook}): a fault plan's crash, partition,
          loss or corruption, or a test's scripted drop. *)

type event =
  | Submitted of { time : Simtime.t; src : int; tag : int }
      (** The application handed a new data message [tag] to the protocol at
          [src] (recorded by the harness at first broadcast; confirmations
          and retransmissions are not submissions). *)
  | Sent of { time : Simtime.t; src : int; uid : int }
      (** A transmission was put on the medium ([uid] identifies this
          transmission, not the logical PDU: a retransmission gets a fresh
          uid). *)
  | Arrived of { time : Simtime.t; dst : int; uid : int }
      (** Accepted into the destination inbox. *)
  | Dropped of { time : Simtime.t; dst : int; uid : int; reason : drop_reason }
  | Handled of { time : Simtime.t; dst : int; uid : int }
      (** The destination entity finished processing the transmission. *)
  | Delivered of { time : Simtime.t; entity : int; tag : int }
      (** Application-level delivery of a logical message [tag] (recorded by
          the protocol harness, not the network). *)
  | Crashed of { time : Simtime.t; entity : int }
      (** The entity crash-stopped: no sends, receives or deliveries may be
          stamped for it until a matching [Restarted]. *)
  | Restarted of { time : Simtime.t; entity : int }
      (** The entity rejoined (checkpoint restore + catch-up). *)
  | Note of { time : Simtime.t; entity : int; label : string }

type t

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list
(** In recording (chronological) order. *)

val length : t -> int
val count : t -> f:(event -> bool) -> int
val filter : t -> f:(event -> bool) -> event list

val deliveries : t -> entity:int -> (Simtime.t * int) list
(** [(time, tag)] pairs delivered at [entity], chronological. *)

val submissions : t -> (Simtime.t * int * int) list
(** [(time, src, tag)] of every application submission, chronological. *)

val drops : t -> drop_reason list
(** Reasons of all drops, chronological. *)

val pp_event : Format.formatter -> event -> unit
val dump : Format.formatter -> t -> unit

(** {2 Persistence} — a line-oriented text format, so recorded runs can be
    linted offline ([colint trace]) and checked into test fixtures. *)

val save : t -> file:string -> unit
val load : file:string -> (t, string) result
(** [Error] carries ["file:line: reason"] for unreadable or malformed
    input. [load] inverts {!save}. *)
