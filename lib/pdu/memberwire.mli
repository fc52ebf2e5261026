(** Wire format for the dynamic-membership control plane (DESIGN.md §16).

    Membership frames are not CO protocol PDUs: they carry no sequence
    numbers and never enter the receipt logs. They are the epoch-stamped
    control traffic of the view-change protocol — JOIN/LEAVE/EVICT
    proposals, VIEW commits carrying the reconciled REQ matrix of the
    closing epoch, STATE transfers streaming a [co-checkpoint-v1] blob to
    a joiner, and REPAIR pushes re-homing a departed source's accepted
    PDUs to survivors that miss them.

    Frames share the wire with data PDUs: the leading magic byte 0xB4 is
    disjoint from the v1 kind bytes (0/1/2) and the v2/v2-traced version
    bytes (0xB2/0xB3), so every existing decoder rejects a membership
    frame cleanly ([Bad_kind]/[Bad_version]), and a membership-aware
    ingress can dispatch on that byte before touching {!Codec}. Layout is
    LEB128 varints with an FNV-1a trailer, like the v2 data format. *)

(** A proposed membership change, by global node id. *)
type change =
  | Join of int  (** A new node asks to enter the next view. *)
  | Leave of int  (** A member announces a voluntary, clean departure. *)
  | Evict of int
      (** A member is declared departed by the suspicion policy and is
          removed without its cooperation. *)

type view = {
  epoch : int;  (** Monotone view counter, 0 for the initial view. *)
  members : int array;  (** Global node ids, strictly ascending. *)
}

type t =
  | Propose of { cid : int; origin : int; epoch : int; change : change }
      (** [origin] (a global node id) proposes [change] against the view
          numbered [epoch]; proposals against any other epoch are stale. *)
  | Commit of { cid : int; view : view; cut : int array array }
      (** Install [view]. [cut] is the reconciled REQ matrix of the
          {e closing} epoch, indexed by the old view's ranks: row [j] is
          member [j]'s final REQ vector, the barrier's proof that every
          PDU below the per-column minima was accepted everywhere. An
          empty matrix commits the initial view. *)
  | State of { cid : int; sponsor : int; target : int; view : view;
               checkpoint : string }
      (** [sponsor] streams a [co-checkpoint-v1] blob to joiner [target]
          (global node ids), bootstrapping it into [view]. *)
  | Repair of { cid : int; src : int; target : int; epoch : int;
                pdus : string list }
      (** Barrier gap repair: re-home [pdus] (v1-encoded DATA frames
          originally from rank [src] of [epoch]) to [target] (a global node
          id), which missed them; the receiver feeds them through its normal
          receive path. The designated holder sends these when a
          {!Reconcile} shows [target] behind on a source that cannot answer
          RETs itself (departed) — or simply to shortcut convergence. *)
  | Report of { cid : int; epoch : int; member : int; req : int array;
                flushed : bool }
      (** Barrier progress report, member [member] (global node id) to the
          coordinator: its entity's current REQ vector over [epoch]'s ranks,
          and whether its send queue has drained ([flushed]). Members repeat
          this on a timer while quiesced; the coordinator's view of the
          closing epoch is the latest report per member. *)
  | Reconcile of { cid : int; epoch : int; reqs : int array array }
      (** Coordinator to everyone: the current REQ matrix (row per rank of
          [epoch]'s view, from the latest {!Report}s). Each member uses it
          to find laggards it is the designated holder for and pushes
          {!Repair}s; re-broadcast each control period until the matrix
          converges. *)

type error =
  | Truncated
  | Bad_magic of int  (** First byte is not 0xB4. *)
  | Bad_kind of int
  | Bad_checksum
  | Trailing of int
  | Invalid of string  (** Structurally valid but violates invariants. *)

val pp_error : Format.formatter -> error -> unit

val encode : t -> bytes
val decode : bytes -> (t, error) result
(** Inverse of {!encode}; length-checked, checksummed, never raises on
    hostile input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
