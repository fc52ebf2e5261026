(** Indexed causality-preserved log — the PRL hot path.

    Observationally identical to folding {!Precedence.cpi_insert_lenient}
    over a list (the differential property suite in [test_logs_prop.ml]
    checks exactly that), but with an O(1) amortized append fast path for
    the common in-order case.

    {b Witnesses are the order relation.} Every entry is admitted with a
    {e witness} vector [w], stored beside it, and the log orders entries by

    {[ p ≺ q  ⟺  (p.src = q.src ∧ p.seq < q.seq)  ∨  witness(q).(p.src) > p.seq ]}

    For the paper's one-hop Theorem 4.1 relation ({!Precedence.precedes},
    Direct mode) the witness is the PDU's own ACK vector: a successor [q]
    of [p] was sent by an entity whose REQ for [p.src] had already passed
    [p], so [q.ack.(p.src) > p.seq]. For the Transitive reach closure the
    witness is [reach + 1] (pointwise): [reach(q).(p.src) >= p.seq] is the
    closure's own test. The raw ACK is {e not} a valid witness there — an
    entity can accept [r] (which saw [p]) without having accepted [p],
    giving [p ≺ r ≺ q] with [q.ack.(p.src) <= p.seq]. {!Entity} computes
    both through one [witness_of], the same function its
    [causally_precedes] applies, so the log's order and the entity's
    relation cannot drift apart. A witness must not be mutated once
    admitted.

    {b Fast path.} The structure maintains [maxack], the pointwise maximum
    of every admitted witness. A newcomer [p] with
    [p.seq >= maxack.(p.src)] cannot precede any resident PDU, so the
    causality-preserved position is the tail, no scan needed. Same-source
    residents are covered by the self-ack convention
    ([q.ack.(q.src) = q.seq], which {!Entity.transmit} establishes and the
    fast path assumes). Only the [p.src] component is consulted: the
    remaining components of a newcomer's witness trail [maxack] whenever
    confirmations lag (the steady state under deferral), so requiring full
    pointwise domination would defeat the fast path exactly when the log is
    deep.

    {b Layout.} Log positions hold [int] handles into a pool of PDUs,
    witnesses and unboxed [(src, seq)] keys; ring and pool share one
    power-of-two capacity with masked indexing. An out-of-order insertion
    (a repaired gap, a delayed PDU) scans array cells and shifts plain ints,
    bounded by the current occupancy — O(nW) thanks to the minPAL drain.
    Nothing is allocated per insertion or dequeue beyond the [Some] a read
    returns, and a dequeued PDU is released from the pool at once. *)

type t

val create : n:int -> t
(** [n] is the cluster size (ACK vector width).
    @raise Invalid_argument if [n <= 0]. *)

val insert :
  ?transitive:bool -> ?witness:int array -> t -> Repro_pdu.Pdu.data -> bool
(** CPI insertion with {!Precedence.cpi_insert_lenient} semantics under the
    witness order above. Returns [true] when the O(1) fast path applied,
    [false] on the fallback insertion. [witness] defaults to the PDU's ACK
    vector (the Direct relation).

    [transitive] (default [false]) asserts that the witness order is
    transitive and irreflexive (true of the reach closure), letting the
    fallback scan backwards from the tail and stop at the first resident
    predecessor: on a causality-preserved log the reference's suffix scan —
    which exists to catch the misplacements a non-transitive relation
    (Direct mode) forces — provably never finds anything. Results are
    identical either way for such relations; passing [true] for a
    non-transitive one loses the lenient Direct-mode placement. *)

val append : ?witness:int array -> t -> Repro_pdu.Pdu.data -> unit
(** Unconditional tail append, bypassing the order check (the witness still
    feeds [maxack], defaulting to the PDU's ACK). For restoring a
    checkpointed log whose order is part of the service guarantee, and for
    the seeded [Skip_cpi_order] fault. *)

val top : t -> Repro_pdu.Pdu.data option
val dequeue : t -> Repro_pdu.Pdu.data option
val length : t -> int

val to_list : t -> Repro_pdu.Pdu.data list
(** Earliest first; the log is unchanged. *)

val fastpath_count : t -> int
(** Inserts that took the O(1) append path since creation. *)

val slowpath_count : t -> int
