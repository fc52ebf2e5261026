(** Ground-truth causality-precedence relation, built from an execution trace.

    The oracle replays the real send/receive events of a simulation run,
    maintains a vector clock per entity, and stamps every message's *send*
    event. Two messages then satisfy the paper's causality-precedence
    [p ≺ q] iff the vector stamp of [send p] is strictly below the stamp of
    [send q] — this is the reference against which the protocol's
    sequence-number-based ordering (Theorem 4.1) is checked. *)

type t

val create : n:int -> t
(** Tracker for a cluster of [n] entities. Messages are identified by
    caller-chosen non-negative integers, unique per send. *)

val send : t -> entity:int -> msg:int -> unit
(** Record that [entity] sent message [msg] (one increment of its clock).
    @raise Invalid_argument if [msg] was already sent. *)

val receive : t -> entity:int -> msg:int -> unit
(** Record that [entity] received [msg]; merges the sender's send stamp.
    @raise Not_found if [msg] was never sent. *)

val local : t -> entity:int -> unit
(** Record an internal event. *)

val send_stamp : t -> int -> Vector_clock.t option
(** Vector stamp of [msg]'s send event, if it was sent. *)

val msg_precedes : t -> int -> int -> bool
(** [msg_precedes t p q] iff [p ≺ q] (send of [p] happened-before send of
    [q]). @raise Not_found if either message was never sent. *)

val msg_concurrent : t -> int -> int -> bool
(** Neither [p ≺ q] nor [q ≺ p] and [p <> q]. *)

