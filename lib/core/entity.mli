(** A CO protocol entity (§4): the complete per-node state machine.

    An entity is transport-agnostic: it interacts with the world only through
    the {!actions} record (broadcast/unicast a PDU, deliver to the
    application, read the clock, arm timers, read its own free buffer), so it
    runs identically under the discrete-event simulator, in unit tests that
    feed it PDUs by hand, or over a real transport.

    Life of a PDU at entity [i]:
    + a DT request is {!submit}ted; if the flow condition (§4.2) holds a DT
      PDU is broadcast, else the request queues until the window slides;
    + an incoming DT PDU is checked against the ACC condition
      ([SEQ = REQ_src]); in-sequence PDUs are accepted into [RRL_src]
      (advancing [REQ], folding the carried ACK vector into [AL] and the
      failure conditions F(1)/F(2)); out-of-sequence PDUs are buffered and
      the gap is requested with a RET (selective repeat);
    + the PACK action moves RRL tops with [SEQ < minAL_src] into the
      causality-ordered [PRL] (CPI), folding their ACK vectors into [PAL];
    + the ACK action moves the PRL top into [ARL] once
      [SEQ < minPAL_src]; data PDUs are then delivered to the application —
      in causality-precedence order, which is the CO service. *)

type actions = {
  broadcast : Repro_pdu.Pdu.t -> unit;
  unicast : dst:int -> Repro_pdu.Pdu.t -> unit;
  deliver : Repro_pdu.Pdu.data -> unit;
      (** Called for acknowledged PDUs carrying application data, in causal
          order. *)
  now : unit -> Repro_sim.Simtime.t;
  set_timer : delay:Repro_sim.Simtime.t -> (unit -> unit) -> unit;
  available_buffer : unit -> int;  (** Own free inbox units (BUF field). *)
}

(** Protocol-level happenings, for tests and latency measurement. *)
type event =
  | Accepted of Repro_pdu.Pdu.data
  | Preacknowledged of Repro_pdu.Pdu.data
  | Acknowledged of Repro_pdu.Pdu.data
  | Gap_detected of { lsrc : int; lo : int; hi : int }
  | Ret_answered of { dst : int; count : int }

(** Telemetry stamps fired from the protocol hot paths. Unlike {!event}
    observers (a list walked per event), the probe is a single optional
    record: when none is installed every site costs one tag test, so
    disabled instrumentation is free. The probe is excluded from
    {!signature} — it never affects protocol behavior. *)
type probe = {
  on_submit : unit -> unit;  (** Application DT request entered [submit]. *)
  on_transmit : Repro_pdu.Pdu.data -> unit;
      (** Fresh sequenced PDU about to be broadcast (first send; RET-driven
          retransmissions do not re-fire this). *)
  on_receive : Repro_pdu.Pdu.data -> unit;
      (** Any incoming data PDU, including duplicates and out-of-order. *)
  on_park : Repro_pdu.Pdu.data -> unit;
      (** An out-of-sequence data PDU was buffered to wait for RET gap
          repair (first park only; duplicate arrivals of a parked PDU do
          not re-fire). Fires after {!on_receive} for the same PDU. The
          delay attributor uses it to classify the PDU's accept wait as
          RET recovery rather than batch queueing. *)
  on_accept : Repro_pdu.Pdu.data -> unit;
  on_preack : Repro_pdu.Pdu.data -> unit;
  on_ack : Repro_pdu.Pdu.data -> unit;
  on_deliver : Repro_pdu.Pdu.data -> unit;
      (** Fires just before [actions.deliver], i.e. before [on_ack] for the
          same PDU (delivery is part of the acknowledgment action). *)
  on_deliver_batch : int -> unit;
      (** An ACK scan finished having acknowledged this many PDUs (> 0);
          fires after their individual [on_ack] stamps. *)
  on_ret_backoff : Repro_sim.Simtime.t -> unit;
      (** A RET retry timer fired for a still-open gap; the argument is the
          new (backed-off) retry delay that will gate the next attempt. *)
}

val probe_nop : probe
(** All fields [ignore]; spread to instrument a subset of sites. *)

type t

exception Protocol_invariant of string
(** Raised by the runtime assertion mode ({!Config.check_level} [Cheap] or
    [Paranoid]) when a structural invariant of the entity state is violated
    after a protocol step. Carries the entity id, invariant name and
    detail. *)

val create : config:Config.t -> id:int -> n:int -> actions:actions -> t
(** @raise Invalid_argument on invalid config, [n < 2] or [id] out of
    range. *)

val id : t -> int
val cluster_size : t -> int

val submit : t -> string -> bool
(** [submit t payload] takes a DT request from the application. Returns
    [true] if a PDU was broadcast immediately, [false] if the request was
    queued by the flow condition (it will be sent when the window slides —
    asynchronous transmission, §1). *)

val receive : t -> Repro_pdu.Pdu.t -> unit
(** Feed a PDU from the network (including this entity's own loopback copy,
    which the MC medium always delivers). *)

val receive_batch : t -> Repro_pdu.Pdu.t list -> unit
(** Feed a burst, in order, under a single post-processing pass: the
    PACK/ACK scans, prune, pump and confirmation logic run once for the
    whole batch instead of once per PDU. Observationally equivalent to
    {!receive} per PDU except that one confirmation decision answers the
    whole burst (Immediate mode sends one confirmation rather than one
    per data PDU). The UDP transport feeds a step's worth of datagrams
    through here: every PDU decoded from a member's socket in one
    [Udp_cluster.step], in arrival order. *)

val kick : t -> unit
(** Force recovery: broadcast a CTL carrying the current REQ vector (so
    peers' anti-entropy answers with what this entity missed), re-issue RETs
    for known-outstanding gaps, and re-arm the heartbeat. Used after a
    {!restore} and by the liveness watchdog; safe at any time — every action
    is one the protocol could have taken on its own. *)

val checkpoint : t -> string
(** Serialize the state a rejoining entity cannot rebuild from the network:
    SEQ, REQ, the AL/PAL matrices, advertised peer buffers, the sending log,
    RRL/PRL/ARL, parked out-of-sequence PDUs, flow-blocked requests, and the
    accepted-header table (Transitive-mode reach vectors need it). Timers,
    backoff ladders and other wall-clock state are excluded — they are
    meaningless after downtime and {!kick} re-derives them. *)

(** Why a {!restore} was refused. A checkpoint crosses a trust boundary —
    it may come from disk after a crash or from a sponsor over the wire
    (membership state transfer) — so the reader proves the blob describes a
    reachable entity state before building anything from it. *)
type restore_error =
  | Bad_magic  (** Not a [co-checkpoint-v1] blob at all. *)
  | Truncated of int  (** Ran out of bytes at this offset. *)
  | Malformed of { at : int; what : string }
      (** A field would not parse (non-integer line, undecodable or
          non-data PDU, trailing bytes). *)
  | Mismatch of { field : string; expected : int; got : int }
      (** Well-formed, but for a different entity than the caller demanded
          via [?expect_id]/[?expect_n] — e.g. a sponsor shipped a joiner a
          state transfer cut for the wrong rank or view size. *)
  | Invalid_state of string
      (** Well-formed, but semantically impossible: id/cluster-size out of
          range, sequence numbers below 1, REQ ahead of own seq, PAL
          exceeding AL, ACK vectors sized for a different membership,
          sending-log or parked PDUs that could not be where they claim. *)

val pp_restore_error : Format.formatter -> restore_error -> unit

val restore :
  ?expect_id:int ->
  ?expect_n:int ->
  config:Config.t -> actions:actions -> string -> (t, restore_error) result
(** [restore ~config ~actions blob] rebuilds an entity from a {!checkpoint}
    (id and cluster size come from the blob; [?expect_id]/[?expect_n] assert
    them when the caller knows what the blob must describe). The entity
    resumes with its sequencing position and logs intact, so it never reuses
    sequence numbers or re-delivers; call {!kick} afterwards to start
    catch-up. [Error] describes the corruption.
    @raise Invalid_argument on invalid config. *)

val bootstrap_checkpoint :
  config:Config.t ->
  id:int ->
  n:int ->
  req:int array ->
  headers:(int * int * int array) list ->
  string
(** The canonical post-view-change-barrier checkpoint, built from data: the
    state of rank [id] in an [n]-member view where every member's REQ vector
    has converged to [req] (the barrier's universal-acceptance guarantee),
    all AL/PAL rows equal [req], every log is empty, the sending log is
    fully pruned, and [headers] carries the accepted-header table (entries
    [(src, seq, ack)]) that Transitive-mode reach computation needs across
    the epoch boundary. {!restore} of the result always succeeds. The
    membership layer uses one such blob per member to open a new epoch —
    survivors build their own locally; a joiner receives the same bytes from
    its sponsor as the [co-checkpoint-v1] state transfer.
    @raise Invalid_argument on invalid config, [n < 2], out-of-range [id],
    REQ components below 1, or a header entry outside [req]'s bounds. *)

val header_entries : t -> (int * int * int array) list
(** The accepted-header table as [(src, seq, ack)] entries, ascending by
    [(src, seq)] — the input the membership layer remaps into a new view's
    {!bootstrap_checkpoint}. *)

val epoch : t -> int
(** The membership epoch this entity was configured with
    ({!Config.t.epoch}); 0 for a static cluster. *)

val find_received : t -> src:int -> seq:int -> Repro_pdu.Pdu.data option
(** Any copy of PDU [(src, seq)] this entity still holds: parked
    out-of-sequence, accepted (RRL), pre-acknowledged (PRL), acknowledged
    (ARL, when [retain_arl]), or — for its own PDUs — in the sending log.
    The view-change barrier uses it to harvest a departed source's PDUs
    from whichever survivor still has them. *)

val close_epoch : t -> req_matrix:int array array -> unit
(** Barrier epilogue: fold the closing epoch's reconciled REQ matrix (row
    [j] = member [j]'s final REQ vector, collected over the membership
    control plane) into AL and PAL, then run the ordinary PACK/ACK scans.
    The matrix proves universal acceptance of everything below its column
    minima, so the scans flush every accepted PDU to the application in CPI
    order without waiting for further confirmation traffic — after which a
    fully reconciled entity reports [buffered = 0] and
    [undelivered_data = 0], and the epoch can be cut over. Injects
    knowledge only; sends nothing. @raise Invalid_argument unless
    [req_matrix] is n×n. *)

val add_observer : t -> (event -> unit) -> unit
(** Register a protocol-event listener; all registered listeners fire in
    registration order. *)

val set_probe : t -> probe -> unit
(** Install (or replace) the telemetry probe. *)

val set_step_checker : t -> (unit -> unit) -> unit
(** Install an external checker run after every protocol step when
    [check_level = Paranoid] (in addition to the built-in structural
    assertions). {!Repro_check.Runtime} uses this to thread the full
    invariant catalog into the entity. *)

(** {2 Inspection} — used by tests, oracles and experiments. *)

val causally_precedes :
  t -> Repro_pdu.Pdu.data -> Repro_pdu.Pdu.data -> bool
(** The precedence test this entity uses for CPI ordering: Theorem 4.1 in
    [Direct] mode, its transitive closure over accepted headers in
    [Transitive] mode. It reads the same witness vectors the PRL stores
    (see {!Cpi_log}), so it is exactly the order CPI applies. *)

val seq_next : t -> int
(** Next sequence number this entity will use. *)

val req : t -> int array
(** Copy of the REQ vector. *)

val minal : t -> int -> int
(** [minal t k] = the paper's [minAL_k]. *)

val minpal : t -> int -> int

val minal_peers : t -> int
(** Minimum of this entity's AL row over the other entities — the bound the
    flow condition compares [SEQ] against. *)

val al_matrix : t -> Repro_clock.Matrix_clock.t
(** Copies; row = informant entity, column = subject source. *)

val pal_matrix : t -> Repro_clock.Matrix_clock.t

val rrl_length : t -> src:int -> int

val rrl_list : t -> src:int -> Repro_pdu.Pdu.data list
(** RRL contents for [src], oldest first. *)

val pending_seqs : t -> src:int -> int list
(** Sequence numbers of out-of-order PDUs parked for [src], ascending. *)

val prl_list : t -> Repro_pdu.Pdu.data list
val arl_list : t -> Repro_pdu.Pdu.data list
val buffered : t -> int
val pending_count : t -> int
(** Out-of-sequence PDUs parked awaiting gap repair. *)

val queued_requests : t -> int
(** DT requests blocked by the flow condition. *)

val undelivered_data : t -> int
(** Data PDUs accepted but not yet acknowledged here. 0 at quiescence. *)

val backlog : t -> int
(** Protocol work this entity still owes: [undelivered_data + pending_count
    + queued_requests]. Every term is non-negative, so [backlog = 0] is
    exactly "drained" — nothing accepted and undelivered, nothing parked
    awaiting gap repair, no DT request blocked by the flow condition. The
    one quiescence predicate the hosts, the watchdog and the view-change
    precondition share. *)

val metrics : t -> Metrics.t

val config : t -> Config.t
(** The configuration this entity was created with. *)

val signature : t -> string
(** Canonical digest of the entity's behavior-relevant mutable state, for the
    model checker's state deduplication. Two entities with equal signatures
    behave identically under any further input — provided time is frozen
    (the explorer's setting): timestamps are digested only as
    has-it-ever-happened flags. *)
