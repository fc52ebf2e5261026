(** Binary wire codec for PDUs.

    Big-endian, length-checked, checksummed. The encoding substantiates the
    paper's §5 claim that PDU length is O(n): the header carries the full
    n-component ACK vector (4 bytes per component). Every datagram ends with
    a 4-byte FNV-1a checksum over the body, so corrupted wire copies are
    rejected rather than parsed into plausible-but-wrong PDUs; [decode]
    never raises on hostile input.

    v1 layout (DT): kind(1) cid(4) src(2) seq(4) buf(4) n(2) ack(4·n)
    len(4) payload(len) cksum(4).
    v1 layout (RET): kind(1) cid(4) src(2) lsrc(2) lseq(4) buf(4) n(2)
    ack(4·n) cksum(4).
    v1 layout (CTL): kind(1) cid(4) src(2) buf(4) n(2) ack(4·n) cksum(4).

    The v2 format (version byte 0xB2, DESIGN.md §14) replaces the
    fixed-width fields with LEB128 varints, delta-encodes ACK vectors
    against a chained base, and batches multiple DATA PDUs per datagram
    under one shared header; {!decode_any} dispatches on the first byte so
    both formats coexist on one wire during rollout. *)

type error =
  | Truncated  (** Fewer bytes than the layout requires. *)
  | Bad_kind of int  (** Unknown kind byte. *)
  | Bad_checksum  (** Well-formed but the FNV-1a trailer does not match. *)
  | Trailing of int  (** Extra bytes after a well-formed PDU. *)
  | Invalid of string  (** Structurally valid but violates PDU invariants. *)
  | Bad_version of int
      (** v2 frame whose version byte is neither 0xB2 nor 0xB3. *)
  | Stale_base
      (** A v2 delta chain reconstructed an ACK component below 1: the
          sender compressed against a base the frame does not establish. *)

val pp_error : Format.formatter -> error -> unit

val encode : Pdu.t -> bytes
(** Fresh buffer containing exactly the encoded PDU (v1 format). *)

val decode : bytes -> (Pdu.t, error) result
(** Inverse of {!encode}; rejects trailing garbage. *)

val encoded_size : Pdu.t -> int
(** Byte length {!encode} will produce, without encoding. *)

val fnv1a : bytes -> pos:int -> len:int -> int
(** 32-bit FNV-1a of [len] bytes of the buffer from [pos]: the checksum
    every frame of this codec (and {!Memberwire}'s) carries as its
    4-byte big-endian trailer.
    @raise Invalid_argument if the range is not within the buffer. *)

val header_size : kind:[ `Data | `Ret | `Ctl ] -> n:int -> int
(** v1 header bytes (everything except DT payload, checksum trailer
    included) for cluster size [n] — linear in [n], which experiment E5
    tabulates. *)

(** {2 v2 wire format}

    Frame: [0xB2 kind body cksum(4)]; an encode sizes the frame, writes
    it into a buffer of exactly that size, then checksums it. DATA frames
    carry a batch: a shared header (cid, n, count, base ACK vector in
    varint components) followed by per-item sparse deltas — an item's ACK
    vector is the running base plus its deltas, and then becomes the base
    for the next item. Decoding reads the datagram in place and never
    raises on hostile input. *)

val encode_v2 : Pdu.t -> bytes
(** One-PDU v2 frame (a DATA PDU becomes a batch of one). *)

val encode_data_batch_v2 : Pdu.data list -> bytes
(** One datagram carrying the whole batch under a shared ACK header, in
    order. @raise Invalid_argument on an empty batch or mixed cid /
    cluster size. *)

val decode_v2 : bytes -> (Pdu.t list, error) result
(** Inverse of {!encode_v2} / {!encode_data_batch_v2}: the PDUs of the
    frame in batch order (singleton for RET/CTL). Rejects non-canonical
    varints, out-of-order or zero deltas ([Invalid]), reconstructed ACK
    components below 1 ([Stale_base]), trailing bytes and checksum
    mismatches; never raises. *)

val decode_any : bytes -> (Pdu.t list, error) result
(** Version dispatch on the first byte: 0xB2 frames go to {!decode_v2},
    0xB3 traced frames are decoded with their trace ids validated and
    discarded, anything else goes to the v1 {!decode} (v1 kind bytes
    are 0/1/2, so the formats cannot collide). The mixed-version
    ingress path — traced and untraced nodes interoperate through
    it. *)

val encoded_size_v2 : Pdu.t -> int
(** Byte length {!encode_v2} will produce, without encoding. *)

(** {2 Traced frames (DESIGN.md §15)}

    The optional trace extension: a 0xB3 frame is a v2 DATA batch body
    followed by one 8-byte big-endian trace id per item (between the
    last payload and the checksum). The ids are opaque to the protocol;
    only DATA is ever traced — RET/CTL PDUs are unsequenced and encode
    as plain 0xB2 regardless of tracing. With tracing off no 0xB3 frame
    is ever produced, so the untraced byte stream (and the committed
    golden vectors) is untouched. *)

val encode_data_batch_traced : ids:int64 array -> Pdu.data list -> bytes
(** Like {!encode_data_batch_v2} with [ids.(i)] attached to item [i].
    @raise Invalid_argument also when [ids] and the batch disagree on
    length. *)

val encode_traced : ids:int64 array -> Pdu.t -> bytes
(** One-PDU convenience: a DATA PDU becomes a traced batch of one
    (expects one id); RET/CTL fall back to {!encode_v2}. *)

val decode_traced : bytes -> (Pdu.t list * int64 array, error) result
(** Like {!decode_any} but surfacing the trace ids of a 0xB3 frame, in
    item order; the array is empty for untraced (v1/0xB2) frames. *)

val encoded_size_traced : Pdu.t -> int
(** Byte length {!encode_traced} will produce: {!encoded_size_v2} plus 8
    per DATA item. *)
