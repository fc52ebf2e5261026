(** Per-PDU trace contexts and the receipt-ladder recorder (DESIGN.md §10,
    §15).

    A {e trace context} identifies one sequenced data PDU across the whole
    cluster: the origin entity, the origin sequence number, and a 64-bit
    trace id derived deterministically from a run-level salt (itself drawn
    from the run's seeded PRNG), so every node — and every offline tool
    holding the seed — computes the same id for the same PDU without
    coordination. The id travels on the wire as the optional v2 frame
    extension ({!Repro_pdu.Codec.encode_traced}); it is what lets a
    Perfetto capture from one node be joined against another node's.

    The {e recorder} is the one collector of the paper's three-level
    atomic receipt (acceptance → pre-acknowledgment → acknowledgment,
    §4). The entity probes ([Repro_core.Probe]) stamp it at application
    submit, first send, first receive, park (out-of-sequence buffering),
    accept, pre-ack, delivery and acknowledgment. Stamps are whatever
    integer µs clock the embedder uses (simulated time in the simulator,
    monotonic µs over UDP); only differences matter. What it produces is
    decided at {!create}:

    - always: the span discipline. A {e span} is the (entity, data PDU)
      interval from acceptance to acknowledgment; the recorder counts
      spans opened and closed and flags span bugs instead of silently
      mis-stamping — closing a span that is not open (double
      acknowledgment), stamping a ladder level out of order, or observing
      a negative latency all increment error counters that tests assert
      to be zero;
    - with a [registry]: [co_ladder_stage_seconds{stage=...}] (first send
      → each receipt level, for {e every} sequenced PDU, empty
      confirmations included), [co_submit_queue_seconds] (submit → first
      send, the flow-condition queueing delay) and [co_deliver_batch_size];
    - with a [salt] (tracing on): one completed {!span} per (entity, data
      PDU) delivery, for the {!Critpath} analyzer.

    Recording never feeds back into the protocol: a traced and an
    untraced run of the same seed are observationally identical, which
    the tracing-equivalence property suite asserts, and the histograms do
    not depend on whether spans are kept. *)

type span = {
  entity : int;  (** Where the delivery happened. *)
  incarnation : int;  (** Of [entity] when the span completed. *)
  src : int;  (** Origin entity. *)
  seq : int;  (** Origin sequence number. *)
  trace_id : int64;
  t_send : int;  (** First broadcast at the origin, µs. *)
  t_recv : int;  (** First arrival of the PDU at [entity], µs. *)
  parked : bool;
      (** The PDU arrived out-of-sequence and waited, parked, for RET
          gap repair before it could be accepted. *)
  t_accept : int;
  t_preack : int;
  t_deliver : int;  (** Delivery = acknowledgment for data PDUs. *)
}

val id : salt:int64 -> src:int -> seq:int -> int64
(** The trace id of PDU (src, seq) under [salt]: a splitmix64-style hash,
    stable across OCaml versions and processes. *)

val salt_of_seed : seed:int -> int64
(** The run salt every component derives from the run seed (one
    {!Repro_util.Prng} draw off a stream split from it, so it is
    decorrelated from the seed's other uses). *)

(** {2 Recorder} *)

type t

val create : ?registry:Registry.t -> ?salt:int64 -> members:int -> unit -> t
(** [registry]: register the ladder histograms there (at creation, so
    exposition sees them before the first sample). [salt]: keep completed
    spans, with trace ids under [salt]. [members]: the number of entities
    that acknowledge every sequenced PDU; a PDU's first-send stamp is
    dropped at its [members]-th {!on_ack}, the last stage that reads it. *)

val registry : t -> Registry.t option

val salt : t -> int64 option
(** [Some] iff the recorder keeps spans. *)

(** {2 Stamps}

    [data] is false for empty confirmations: they climb the ladder and
    feed the stage histograms, but spans are opened and closed only for
    data PDUs — the trailing empty confirmations of a run are never
    acknowledged, so tracking them would report orphan spans on every
    complete run. *)

val on_submit : t -> src:int -> now:int -> unit
(** An application DT request entered entity [src] (it may be queued by
    the flow condition before transmission). *)

val on_send : t -> src:int -> seq:int -> data:bool -> now:int -> unit
(** First broadcast of a fresh sequenced PDU; later calls for the same
    PDU are ignored. A data PDU takes the oldest pending {!on_submit}
    stamp of its source. *)

val on_receive : t -> entity:int -> src:int -> seq:int -> now:int -> unit
(** Any arrival of a data PDU; only the first per (entity, PDU) is kept.
    Spans only: a no-op unless the recorder keeps spans. *)

val on_park : t -> entity:int -> src:int -> seq:int -> unit
(** The data PDU was buffered out-of-sequence at [entity]; marks the
    span's accept wait as RET recovery rather than batch queueing. Spans
    only. *)

val on_accept :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Opens the span. *)

val on_preack :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit

val on_deliver :
  t -> entity:int -> incarnation:int -> src:int -> seq:int -> now:int -> unit
(** Data PDUs only; fires inside acknowledgment, before {!on_ack}, so the
    span must still be open. Completes the kept span; one missing a send,
    receive or ladder stamp (PDU from before instrumentation was
    attached, or cut short by a crash) is dropped and counted in
    {!incomplete}. *)

val on_ack : t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Closes the span. The [members]-th acknowledgment of a PDU retires its
    first-send stamp (see {!create}). *)

val on_deliver_batch : t -> size:int -> unit
(** One ACK-scan drain acknowledged [size] PDUs in a row. Feeds the
    [co_deliver_batch_size] histogram (a count, not a latency); zero-sized
    scans are not recorded. *)

val abandon_entity : t -> entity:int -> incarnation:int -> unit
(** Entity [entity] crashed while running as [incarnation]: close its
    open spans as {e abandoned} — counted in {!abandoned} and the
    [co_spans_abandoned_total{entity=...,incarnation=...}] counter —
    instead of leaking them or letting the restarted incarnation's stamps
    stitch onto them. Its partial stamps are discarded. Post-restart
    pre-ack/deliver/ack stamps for an abandoned span (the checkpointed
    entity resumes mid-ladder) are accepted silently rather than flagged
    as span errors, but they never close a span; a fresh acceptance
    opens a new one. *)

val cut : t -> members:int -> unit
(** A view-change cut remapped the ranks: drop every first-send stamp,
    pending submit stamp and partial span of the closed epoch, so the new
    epoch's [(rank, seq)] keys start clean, and take the new view's size
    as [members] (see {!create}). Completed spans and counters are kept; a
    span still open at the cut stays counted in {!open_spans}. *)

(** {2 Results} *)

type ladder = {
  queue : Histogram.snapshot;  (** submit → first send, µs. *)
  accept : Histogram.snapshot;  (** first send → acceptance, µs. *)
  preack : Histogram.snapshot;
  ack : Histogram.snapshot;
  deliver : Histogram.snapshot;
}

val ladder : t -> ladder option
(** [None] without a registry. *)

val send_stamps : t -> int
(** First-send stamps held: PDUs sent but not yet acknowledged by every
    member. It stays bounded by what is in flight, not by run length. *)

val spans : t -> span list
(** Completed spans, in completion order; [[]] unless spans are kept. *)

val spans_opened : t -> int
val spans_closed : t -> int

val abandoned : t -> int
(** Spans closed by {!abandon_entity} rather than by acknowledgment. *)

val open_spans : t -> int
(** Accepted but not yet acknowledged (entity, data PDU) pairs — 0 at
    quiescence; a nonzero value after a complete run is an orphan span. *)

val close_errors : t -> int
(** Acknowledgments with no matching open span (double-ack or
    ack-before-accept). Must be 0. *)

val order_errors : t -> int
(** Ladder stamps out of order or with negative latency (preack/deliver on
    a closed or never-opened span, clock regression). Must be 0. *)

val incomplete : t -> int
(** Deliveries whose span could not be completed (kept spans only). *)
