(** The four logs a CO entity maintains (§2.2, §4).

    - [SL] (sending log): every PDU this entity broadcast, kept for selective
      retransmission and pruned once every peer is known to have accepted it;
    - [RRL_j] (receipt sublogs): PDUs accepted from source [j], in sequence
      order, awaiting pre-acknowledgment;
    - [PRL]: pre-acknowledged PDUs kept in causality-precedence order by the
      CPI operation ({!Cpi_log}: a ring of unboxed handles ordered by each
      entry's stored witness vector, with an O(1) in-order tail append);
    - [ARL]: acknowledged PDUs, the application delivery queue.

    RRL and ARL are growable rings (acceptance and delivery order are FIFO
    by construction). *)

module Sending : sig
  type t

  val create : unit -> t

  val append : t -> Repro_pdu.Pdu.data -> unit
  (** @raise Invalid_argument if the PDU's seq is not exactly one past the
      previous append (sending logs are gap-free by construction). *)

  val find : t -> seq:int -> Repro_pdu.Pdu.data option

  val range : t -> lo:int -> hi:int -> Repro_pdu.Pdu.data list
  (** PDUs with [lo <= seq < hi] still retained, ascending. *)

  val last_seq : t -> int
  (** Highest appended seq; 0 when nothing was ever appended. *)

  val low_seq : t -> int
  (** Lowest retained seq (1 before any pruning). *)

  val prune_below : t -> seq:int -> unit
  (** Forget PDUs with [seq' < seq]; they can no longer be requested. *)

  val length : t -> int
  (** PDUs currently retained. *)

  val reload : t -> low:int -> last:int -> Repro_pdu.Pdu.data list -> unit
  (** Replace the whole log with a checkpointed snapshot: retained range
      [low..last] (possibly already pruned past 1) holding [pdus]. Used by
      {!Entity.restore}. @raise Invalid_argument on a nonsensical range or a
      PDU outside it. *)
end

module Receipt : sig
  type t

  val create : n:int -> t

  (** RRL operations, per source. *)

  val rrl_enqueue : t -> src:int -> Repro_pdu.Pdu.data -> unit
  val rrl_top : t -> src:int -> Repro_pdu.Pdu.data option
  val rrl_dequeue : t -> src:int -> Repro_pdu.Pdu.data option
  val rrl_length : t -> src:int -> int

  val rrl_to_list : t -> src:int -> Repro_pdu.Pdu.data list
  (** Oldest (next to pre-acknowledge) first. *)

  (** PRL operations. *)

  val prl_insert :
    ?transitive:bool -> ?witness:int array -> t -> Repro_pdu.Pdu.data -> bool
  (** CPI insertion ({!Cpi_log.insert}, lenient semantics), ordered by the
      stored witness vectors: [witness] (default: the PDU's ACK, the Direct
      relation) is the newcomer's, [reach + 1] for the Transitive closure.
      Returns [true] when the O(1) in-order fast path applied;
      [transitive] asserts the witness order is transitive. *)

  val prl_append : ?witness:int array -> t -> Repro_pdu.Pdu.data -> unit
  (** Unconditional tail append ({!Cpi_log.append}): checkpoint restore,
      where the saved order is part of the service guarantee, and the
      seeded [Skip_cpi_order] fault. *)

  val prl_top : t -> Repro_pdu.Pdu.data option
  val prl_dequeue : t -> Repro_pdu.Pdu.data option
  val prl_length : t -> int

  val cpi_fastpath : t -> int
  (** PRL insertions that took the O(1) fast path since creation. *)

  val prl_to_list : t -> Repro_pdu.Pdu.data list
  (** Earliest (next to acknowledge) first. *)

  (** ARL operations. *)

  val arl_enqueue : t -> Repro_pdu.Pdu.data -> unit
  val arl_dequeue : t -> Repro_pdu.Pdu.data option
  val arl_length : t -> int
  val arl_to_list : t -> Repro_pdu.Pdu.data list

  val buffered : t -> int
  (** Current RRL + PRL occupancy — the protocol's working buffer, which the
      paper bounds by O(nW) (experiment E3). *)
end
