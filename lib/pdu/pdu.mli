(** Protocol data units of the CO protocol.

    Three kinds are exchanged:

    - {b DT} (Figure 4): a sequenced broadcast PDU carrying the source's
      sequence number [SEQ], the receipt-confirmation vector
      [ACK = ⟨ACK_1..ACK_n⟩] ([ACK_j] = sequence number the source expects
      next from entity [j]), the advertised free buffer [BUF], and optional
      application data. A DT PDU with empty data is a pure (deferred)
      confirmation — still sequenced, still part of the causal order.
    - {b RET} (Figure 5): a selective-retransmission request: "[LSRC],
      rebroadcast your PDUs with [ACK_LSRC ≤ SEQ < LSEQ]". Carries the
      requester's ACK vector and BUF too.
    - {b CTL}: an {e unsequenced} confirmation carrying only ACK/BUF. This is
      a liveness extension over the paper (see DESIGN.md): it lets an
      up-to-date entity answer a stale peer at quiescence without consuming a
      sequence number, so the stale peer can detect its loss through failure
      condition (2) and recover. The paper's evaluation has continuous
      traffic and never needs it. *)

type data = {
  cid : int;  (** Cluster identifier. *)
  src : int;  (** Sending entity. *)
  seq : int;  (** Per-source sequence number, starting at 1. *)
  ack : int array;  (** [ack.(j)] = seq the source expects next from [j]. *)
  buf : int;  (** Free buffer units at the source. *)
  payload : string;  (** Application data; [""] for a pure confirmation. *)
}

type ret = {
  cid : int;
  src : int;  (** Requesting entity. *)
  lsrc : int;  (** Source of the lost PDUs. *)
  lseq : int;  (** Exclusive upper bound of the lost range. *)
  ack : int array;  (** Requester's REQ vector; [ack.(lsrc)] is the lower
                        bound of the lost range. *)
  buf : int;
}

type ctl = { cid : int; src : int; ack : int array; buf : int }

type t = Data of data | Ret of ret | Ctl of ctl

val word_bound : int  (** 2^31, the v1 layout's integer bound. *)

val data :
  cid:int -> src:int -> seq:int -> ack:int array -> buf:int -> payload:string
  -> t
(** Smart constructor; validates [seq >= 1], [src] within the ack vector,
    and non-negative fields below {!word_bound}, with fewer than 2^16 ACK
    components (as [ret] and [ctl] do). @raise Invalid_argument
    otherwise. *)

val ret :
  cid:int -> src:int -> lsrc:int -> lseq:int -> ack:int array -> buf:int -> t

val ctl : cid:int -> src:int -> ack:int array -> buf:int -> t

val key : data -> int * int
(** [(src, seq)] — the logical identity of a DT PDU; stable across
    retransmissions. *)

val is_confirmation : data -> bool
(** True when the payload is empty. *)

val cluster_size : t -> int
(** Length of the ACK vector. *)

val src : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
