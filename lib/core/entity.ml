open Repro_pdu
module Matrix_clock = Repro_clock.Matrix_clock
module Simtime = Repro_sim.Simtime

type actions = {
  broadcast : Pdu.t -> unit;
  unicast : dst:int -> Pdu.t -> unit;
  deliver : Pdu.data -> unit;
  now : unit -> Simtime.t;
  set_timer : delay:Simtime.t -> (unit -> unit) -> unit;
  available_buffer : unit -> int;
}

type event =
  | Accepted of Pdu.data
  | Preacknowledged of Pdu.data
  | Acknowledged of Pdu.data
  | Gap_detected of { lsrc : int; lo : int; hi : int }
  | Ret_answered of { dst : int; count : int }

type probe = {
  on_submit : unit -> unit;
  on_transmit : Pdu.data -> unit;
  on_receive : Pdu.data -> unit;
  on_park : Pdu.data -> unit;
  on_accept : Pdu.data -> unit;
  on_preack : Pdu.data -> unit;
  on_ack : Pdu.data -> unit;
  on_deliver : Pdu.data -> unit;
  on_deliver_batch : int -> unit;
  on_ret_backoff : Simtime.t -> unit;
}

let probe_nop =
  {
    on_submit = ignore;
    on_transmit = ignore;
    on_receive = ignore;
    on_park = ignore;
    on_accept = ignore;
    on_preack = ignore;
    on_ack = ignore;
    on_deliver = ignore;
    on_deliver_batch = ignore;
    on_ret_backoff = ignore;
  }

type t = {
  config : Config.t;
  id : int;
  n : int;
  actions : actions;
  mutable seq : int; (* next sequence number to assign *)
  req : int array; (* REQ_j: next expected from j (self included) *)
  al : Matrix_clock.t; (* row = informant j, col = subject k *)
  pal : Matrix_clock.t;
  buf : int array; (* last advertised free buffer per entity *)
  buf_at : Simtime.t array; (* when that advertisement was heard *)
  sl : Logs.Sending.t;
  logs : Logs.Receipt.t;
  pending : (int, Pdu.data) Hashtbl.t array; (* out-of-sequence, per source *)
  dt_queue : string Queue.t; (* flow-blocked application requests *)
  fails : Failure.t;
  heard : bool array; (* DT received from j since our last transmission *)
  mutable req_at_last_send : int array;
  mutable need_immediate_confirm : bool;
  mutable prompted : bool; (* a CTL asked us to flush confirmations *)
  mutable defer_timer_armed : bool;
  mutable hb_interval : Simtime.t; (* current heartbeat period (with backoff) *)
  mutable accepted_at_last_hb : int;
  ret_timer_armed : bool array;
  ret_backoff : Simtime.t array; (* current retry delay per lsrc *)
  rng : Repro_util.Prng.t; (* retry jitter; never protocol decisions *)
  last_ctl_to : Simtime.t array; (* anti-entropy rate limiting *)
  mutable last_send_at : Simtime.t; (* spacing clock for deferred empties *)
  mutable last_ctl_broadcast_at : Simtime.t;
  headers : int array option array array;
      (* accepted (src, seq) -> ACK; seq-indexed growable per source. The
         Transitive-mode witness computation reads it per predecessor, so
         this must be an array read, not a hash lookup. *)
  witness_memo : int array option array array; (* (src, seq) -> reach + 1 *)
  mutable undelivered : int; (* accepted data PDUs not yet acknowledged *)
  metrics : Metrics.t;
  mutable observers : (event -> unit) list;
  mutable step_checker : (unit -> unit) option;
  mutable probe : probe option;
      (* Telemetry stamps on the hot protocol paths. [None] (the default)
         costs one tag test per site; observers stay the general-purpose
         mechanism while the probe is the fixed, allocation-free shape the
         obs layer needs. *)
}

exception Protocol_invariant of string

let create ~config ~id ~n ~actions =
  Config.validate config;
  if n < 2 then invalid_arg "Entity.create: cluster needs at least 2 entities";
  if id < 0 || id >= n then invalid_arg "Entity.create: id out of range";
  {
    config;
    id;
    n;
    actions;
    seq = 1;
    req = Array.make n 1;
    al = Matrix_clock.create ~n ~init:1;
    pal = Matrix_clock.create ~n ~init:1;
    buf = Array.make n config.initial_buf;
    buf_at = Array.make n (-1_000_000_000);
    sl = Logs.Sending.create ();
    logs = Logs.Receipt.create ~n;
    pending = Array.init n (fun _ -> Hashtbl.create 16);
    dt_queue = Queue.create ();
    fails = Failure.create ~n;
    heard = Array.make n false;
    req_at_last_send = Array.make n 1;
    need_immediate_confirm = false;
    prompted = false;
    defer_timer_armed = false;
    hb_interval = 0;
    accepted_at_last_hb = 0;
    ret_timer_armed = Array.make n false;
    ret_backoff = Array.make n config.ret_retry_timeout;
    rng = Repro_util.Prng.create ~seed:(0x5e17 + id);
    last_ctl_to = Array.make n (-1_000_000_000);
    last_send_at = -1_000_000_000;
    last_ctl_broadcast_at = -1_000_000_000;
    headers = Array.init n (fun _ -> Array.make 64 None);
    witness_memo = Array.init n (fun _ -> Array.make 64 None);
    undelivered = 0;
    metrics = Metrics.create ();
    observers = [];
    step_checker = None;
    probe = None;
  }

let id t = t.id
let cluster_size t = t.n
let add_observer t f = t.observers <- t.observers @ [ f ]
let notify t e = List.iter (fun f -> f e) t.observers
let set_probe t p = t.probe <- Some p

let minal t k = Matrix_clock.col_min t.al k
let minpal t k = Matrix_clock.col_min t.pal k

(* Per-source seq-indexed stores (headers, witness memo). Sequence numbers
   start at 1 and the stores are never pruned, so a plain growable array
   beats a hashtable on the lookup-heavy paths. *)
let store_get store src seq =
  let a = store.(src) in
  if seq < Array.length a then a.(seq) else None

let store_set store src seq v =
  let a = store.(src) in
  let len = Array.length a in
  if seq >= len then begin
    let a' = Array.make (max (seq + 1) (2 * len)) None in
    Array.blit a 0 a' 0 len;
    a'.(seq) <- Some v;
    store.(src) <- a'
  end
  else a.(seq) <- Some v

(* Lowest sequence number some PEER still expects from us. The flow window
   slides on this rather than on [minal t t.id]: our own AL row is always
   one behind ([ACK_self = SEQ] convention), and including it would cap the
   usable window at W-1 and deadlock W=1 outright. *)
let minal_peers t =
  let acc = ref max_int in
  for j = 0 to t.n - 1 do
    if j <> t.id then begin
      let v = Matrix_clock.get t.al ~row:j ~col:t.id in
      if v < !acc then acc := v
    end
  done;
  !acc

(* Reach witness of an accepted PDU: its reach vector plus one, pointwise —
   w.(m) = 1 + the highest sequence number from source m whose PDU causally
   precedes it (1 = none). Computed from the stored headers by following
   direct predecessors: the PDU (m, ack.(m)-1) for every component m (the
   self component uses the seq-1 convention built into the ACK self field),
   so w is the pointwise maximum of the ACK and the predecessors' witnesses.
   The same-source predecessor goes first: its witness usually covers every
   other component already, and a predecessor (m, ack.(m)-1) with
   [ack.(m) <= w.(m)] is skipped — transitivity puts it in the causal past
   of an entry already merged, so its witness is pointwise <= w. Returns
   [None] while some transitive predecessor has not been accepted yet — the
   PACK action then defers the PDU, so every vector that is ever memoized is
   exact. Memoized vectors are shared with the PRL and never mutated. *)
let rec reach_witness t ~src ~seq =
  match store_get t.witness_memo src seq with
  | Some w -> Some w
  | None -> (
    match store_get t.headers src seq with
    | None -> None
    | Some ack ->
      let w = Array.make t.n 1 in
      let complete = ref (merge_pred t w ack src) in
      for m = 0 to t.n - 1 do
        if !complete && m <> src then complete := merge_pred t w ack m
      done;
      if !complete then begin
        store_set t.witness_memo src seq w;
        Some w
      end
      else None)

(* Raise [w] by direct predecessor (m, ack.(m)-1) unless [w] covers it;
   [false] when its witness is not computable yet. [w] starts at 1, so an
   uncovered predecessor has seq >= 1. *)
and merge_pred t w ack m =
  let a = ack.(m) in
  if a <= w.(m) then true
  else begin
    w.(m) <- a;
    match reach_witness t ~src:m ~seq:(a - 1) with
    | Some pw ->
      for l = 0 to t.n - 1 do
        if pw.(l) > w.(l) then w.(l) <- pw.(l)
      done;
      true
    | None -> false
  end

(* Whether the PDU's causal past is fully accepted here, so its reach vector
   (and hence its CPI position) is exact. Always true in Direct mode, which
   orders by the paper's one-hop test alone. *)
let reach_ready t (p : Pdu.data) =
  match t.config.causality_mode with
  | Config.Direct -> true
  | Config.Transitive -> reach_witness t ~src:p.src ~seq:p.seq <> None

(* The witness vector that orders [q] for CPI (see {!Cpi_log}): [p ≺ q] iff
   same source and [p.seq < q.seq], or [witness_of t q].(p.src) > p.seq.
   Direct mode: the ACK, giving the paper's one-hop Theorem 4.1 test.
   Transitive mode: reach + 1, giving the closure; a PDU whose causal past
   is not known here (a restored resident whose predecessors' headers were
   not carried over) degrades to the one-hop test through its ACK. *)
let witness_of t (q : Pdu.data) =
  match t.config.causality_mode with
  | Config.Direct -> q.ack
  | Config.Transitive -> (
    match reach_witness t ~src:q.src ~seq:q.seq with
    | Some w -> w
    | None -> q.ack)

(* The causality-precedence test CPI applies, read off the witnesses. *)
let causally_precedes t (p : Pdu.data) (q : Pdu.data) =
  if p.src = q.src then p.seq < q.seq else (witness_of t q).(p.src) > p.seq

(* Smallest known free buffer in the cluster. A peer's advertisement decays
   back to [initial_buf] once it is older than the RET retry timeout:
   receivers drain their inboxes over time, and honouring a stale low BUF
   forever would shut the window permanently on a cluster that has gone
   quiet (nobody sends, so nobody re-advertises). *)
let minbuf t =
  let now = t.actions.now () in
  let acc = ref (t.actions.available_buffer ()) in
  for j = 0 to t.n - 1 do
    if j <> t.id then begin
      let fresh =
        Simtime.compare now (Simtime.add t.buf_at.(j) t.config.ret_retry_timeout)
        < 0
      in
      let v = if fresh then t.buf.(j) else max t.buf.(j) t.config.initial_buf in
      if v < !acc then acc := v
    end
  done;
  !acc

let note_buf t ~peer v =
  t.buf.(peer) <- v;
  t.buf_at.(peer) <- t.actions.now ()

let flow_ok t =
  Flow.may_send ~config:t.config ~n:t.n ~seq:t.seq ~minal_self:(minal_peers t)
    ~minbuf:(minbuf t)

let req_changed t =
  let changed = ref false in
  for j = 0 to t.n - 1 do
    if j <> t.id && t.req.(j) <> t.req_at_last_send.(j) then changed := true
  done;
  !changed

let fail_invariant t name detail =
  raise (Protocol_invariant (Printf.sprintf "entity %d: %s: %s" t.id name detail))

(* Structural invariants of a between-steps entity state. [Cheap] runs the
   O(n²) matrix and window checks; [Paranoid] additionally walks the logs.
   The same facts, plus cross-step monotonicity and delivery-order
   monitoring, live in the external catalog (lib/check/invariants.ml); the
   inline forms are the always-available subset that needs no extra
   dependencies, so any run can self-check by flipping the config. *)
let self_check t =
  (* Pre-acknowledgment never outruns acceptance knowledge: every PDU that
     raises a PAL row raised the same AL row at acceptance, and rows only
     grow, so PAL ≤ AL pointwise (hence minPAL_k ≤ minAL_k for every k). *)
  for j = 0 to t.n - 1 do
    for k = 0 to t.n - 1 do
      let p = Matrix_clock.get t.pal ~row:j ~col:k in
      let a = Matrix_clock.get t.al ~row:j ~col:k in
      if p > a then
        fail_invariant t "pal-le-al"
          (Printf.sprintf "PAL[%d][%d]=%d > AL[%d][%d]=%d" j k p j k a)
    done
  done;
  (* Every sequenced transmission was gated by [seq < minal_peers + W_eff]
     (plus one slack slot for empty confirmations), and minAL only grows, so
     the next fresh seq can never run more than W+1 ahead of the window. *)
  if t.seq > minal_peers t + t.config.window + 1 then
    fail_invariant t "window-bound"
      (Printf.sprintf "seq_next=%d > minAL_peers=%d + W=%d + 1" t.seq
         (minal_peers t) t.config.window);
  if t.req.(t.id) > t.seq then
    fail_invariant t "req-self"
      (Printf.sprintf "REQ_self=%d > next own seq=%d" t.req.(t.id) t.seq);
  if t.config.check_level = Config.Paranoid then begin
    for j = 0 to t.n - 1 do
      (* RRL_j is the contiguous run of accepted-not-yet-packed seqs ending
         exactly at REQ_j - 1 (acceptance is in-sequence per source). *)
      let expect = ref (t.req.(j) - Logs.Receipt.rrl_length t.logs ~src:j) in
      List.iter
        (fun (p : Pdu.data) ->
          if p.seq <> !expect then
            fail_invariant t "rrl-contiguous"
              (Printf.sprintf "RRL_%d holds seq %d where %d was expected" j
                 p.seq !expect);
          incr expect)
        (Logs.Receipt.rrl_to_list t.logs ~src:j);
      (* Parked out-of-sequence PDUs are strictly beyond REQ (the drain loop
         in [handle_data] consumes everything at or below it). *)
      Hashtbl.iter
        (fun seq _ ->
          if seq <= t.req.(j) then
            fail_invariant t "pending-above-req"
              (Printf.sprintf "pending seq %d from %d <= REQ=%d" seq j
                 t.req.(j)))
        t.pending.(j)
    done;
    (* Every pre-acknowledged PDU passed the SEQ < minAL gate, and minAL is
       monotone, so the whole PRL stays below it. *)
    List.iter
      (fun (p : Pdu.data) ->
        if p.seq >= minal t p.src then
          fail_invariant t "prl-below-minal"
            (Printf.sprintf "PRL holds (%d,%d) but minAL_%d=%d" p.src p.seq
               p.src (minal t p.src)))
      (Logs.Receipt.prl_to_list t.logs);
    (* CPI keeps PRL a linear extension of ≺ (checked against the one-hop
       Theorem 4.1 test, a sound subrelation of the Transitive mode's
       closure). Direct mode legitimately misorders relayed chains
       (DESIGN.md §7), so the check only applies to Transitive. *)
    if t.config.causality_mode = Config.Transitive then
      if not (Precedence.is_causality_preserved (Logs.Receipt.prl_to_list t.logs))
      then fail_invariant t "prl-linear-extension" "PRL is not causality-preserved"
  end

let check_step t =
  match t.config.check_level with
  | Config.Off -> ()
  | Config.Cheap -> self_check t
  | Config.Paranoid -> (
    self_check t;
    match t.step_checker with Some f -> f () | None -> ())

(* Broadcast a fresh sequenced DT PDU. The self component of the ACK vector
   is this PDU's own sequence number (Example 4.1, Table 1): the sender
   expects its own copy of [p] next on the loopback. *)
let transmit t ~payload =
  let ack = Array.copy t.req in
  ack.(t.id) <- t.seq;
  let pdu =
    Pdu.data ~cid:t.config.cid ~src:t.id ~seq:t.seq ~ack
      ~buf:(t.actions.available_buffer ())
      ~payload
  in
  let d = match pdu with Pdu.Data d -> d | Pdu.Ret _ | Pdu.Ctl _ -> assert false in
  t.seq <- t.seq + 1;
  Logs.Sending.append t.sl d;
  if String.length payload = 0 then
    t.metrics.confirmations_sent <- t.metrics.confirmations_sent + 1
  else t.metrics.data_sent <- t.metrics.data_sent + 1;
  t.req_at_last_send <- Array.copy t.req;
  t.last_send_at <- t.actions.now ();
  Array.fill t.heard 0 t.n false;
  t.need_immediate_confirm <- false;
  (match t.probe with None -> () | Some p -> p.on_transmit d);
  t.actions.broadcast pdu

let send_ctl_broadcast t =
  t.metrics.ctl_sent <- t.metrics.ctl_sent + 1;
  t.actions.broadcast
    (Pdu.ctl ~cid:t.config.cid ~src:t.id ~ack:t.req
       ~buf:(t.actions.available_buffer ()))

let send_ctl_to t ~dst =
  t.metrics.ctl_sent <- t.metrics.ctl_sent + 1;
  t.actions.unicast ~dst
    (Pdu.ctl ~cid:t.config.cid ~src:t.id ~ack:t.req
       ~buf:(t.actions.available_buffer ()))

let pump t =
  while (not (Queue.is_empty t.dt_queue)) && flow_ok t do
    transmit t ~payload:(Queue.pop t.dt_queue)
  done

let send_ret t ~lsrc ~lseq =
  t.metrics.ret_sent <- t.metrics.ret_sent + 1;
  t.actions.broadcast
    (Pdu.ret ~cid:t.config.cid ~src:t.id ~lsrc ~lseq ~ack:t.req
       ~buf:(t.actions.available_buffer ()))

(* The retry timer backs off exponentially while the gap stays open —
   retries into a partition or a crashed source would otherwise fire at
   fixed cadence forever — and carries uniform jitter so entities that lost
   the same datagram don't re-request in lockstep. Any acceptance from
   [lsrc] (progress) resets the delay to the base timeout. *)
let ret_delay_with_jitter t lsrc =
  let base = t.ret_backoff.(lsrc) in
  if t.config.ret_jitter_pct = 0 then base
  else base + Repro_util.Prng.int t.rng ((base * t.config.ret_jitter_pct / 100) + 1)

let rec arm_ret_timer t lsrc =
  if not t.ret_timer_armed.(lsrc) then begin
    t.ret_timer_armed.(lsrc) <- true;
    t.actions.set_timer ~delay:(ret_delay_with_jitter t lsrc) (fun () ->
        t.ret_timer_armed.(lsrc) <- false;
        match
          Failure.retry_due t.fails ~now:(t.actions.now ())
            ~retry_after:t.config.ret_retry_timeout ~lsrc ~req:t.req.(lsrc)
        with
        | Some (_, hi) ->
          t.metrics.ret_retries <- t.metrics.ret_retries + 1;
          t.ret_backoff.(lsrc) <-
            min t.config.ret_backoff_max
              (t.ret_backoff.(lsrc) * t.config.ret_backoff_factor);
          (match t.probe with
          | None -> ()
          | Some p -> p.on_ret_backoff t.ret_backoff.(lsrc));
          send_ret t ~lsrc ~lseq:hi;
          arm_ret_timer t lsrc
        | None -> (
          (* [retry_due] answers [None] both when the gap closed and when the
             timer simply fired early (a later [observe] refreshed
             [requested_at], pushing the due time past this firing). Only the
             first may drop the timer: while the gap is outstanding the timer
             must stay armed, or a lost RET is never re-requested and the
             missing PDU stalls forever. *)
          match Failure.outstanding t.fails ~lsrc with
          | None -> t.ret_backoff.(lsrc) <- t.config.ret_retry_timeout
          | Some _ -> arm_ret_timer t lsrc))
  end

(* Failure conditions F(1)/F(2): evidence that PDUs from [lsrc] strictly
   below [bound] exist and we have not received them. *)
let check_gap t ~lsrc ~bound =
  if lsrc <> t.id then
    match
      Failure.observe t.fails ~now:(t.actions.now ())
        ~retry_after:t.config.ret_retry_timeout ~lsrc ~req:t.req.(lsrc) ~bound
    with
    | Failure.No_gap -> ()
    | Failure.Already_requested ->
      (* The request is in flight, but the retry timer may have died (its
         last firing found the retry not yet due). Re-arming is guarded by
         [ret_timer_armed], so this is a no-op when the timer is live. *)
      arm_ret_timer t lsrc
    | Failure.Request { lo; hi } ->
      t.metrics.gaps_detected <- t.metrics.gaps_detected + 1;
      notify t (Gap_detected { lsrc; lo; hi });
      send_ret t ~lsrc ~lseq:hi;
      arm_ret_timer t lsrc

let scan_acks_for_gaps t ~informant ack =
  for l = 0 to t.n - 1 do
    if l <> t.id && l <> informant && ack.(l) > t.req.(l) then
      check_gap t ~lsrc:l ~bound:ack.(l)
  done

(* Anti-entropy (liveness extension, DESIGN.md): if a peer's confirmation
   shows it is missing PDUs we know exist, answer with an unsequenced CTL so
   the peer's own failure condition (2) can fire. *)
let maybe_help_stale_peer t ~peer ack =
  if t.config.anti_entropy && peer <> t.id then begin
    let behind = ref false in
    for l = 0 to t.n - 1 do
      if l <> peer && ack.(l) < t.req.(l) then behind := true
    done;
    if !behind then begin
      let now = t.actions.now () in
      if
        Simtime.compare now
          (Simtime.add t.last_ctl_to.(peer) t.config.ret_retry_timeout)
        >= 0
      then begin
        t.last_ctl_to.(peer) <- now;
        send_ctl_to t ~dst:peer
      end
    end
  end

(* Acceptance action (§4.2): in-sequence PDU joins RRL_src; its ACK vector is
   new knowledge for AL and for failure detection. *)
let accept t (q : Pdu.data) =
  let j = q.src in
  t.req.(j) <- q.seq + 1;
  Failure.satisfied_up_to t.fails ~lsrc:j ~req:t.req.(j);
  t.ret_backoff.(j) <- t.config.ret_retry_timeout;
  Matrix_clock.set_row t.al ~row:j q.ack;
  note_buf t ~peer:j q.buf;
  store_set t.headers j q.seq q.ack;
  Logs.Receipt.rrl_enqueue t.logs ~src:j q;
  if not (Pdu.is_confirmation q) then begin
    t.undelivered <- t.undelivered + 1;
    if j <> t.id then t.need_immediate_confirm <- true
  end;
  t.metrics.accepted <- t.metrics.accepted + 1;
  (match t.probe with None -> () | Some p -> p.on_accept q);
  notify t (Accepted q);
  scan_acks_for_gaps t ~informant:j q.ack;
  maybe_help_stale_peer t ~peer:j q.ack

let handle_data t (p : Pdu.data) =
  let j = p.src in
  (match t.probe with None -> () | Some pr -> pr.on_receive p);
  if j <> t.id then t.heard.(j) <- true;
  if p.seq < t.req.(j) then t.metrics.duplicates <- t.metrics.duplicates + 1
  else if p.seq > t.req.(j) then begin
    (* Out of sequence: selective repeat buffers it and requests the gap. *)
    t.metrics.out_of_order <- t.metrics.out_of_order + 1;
    if not (Hashtbl.mem t.pending.(j) p.seq) then begin
      Hashtbl.replace t.pending.(j) p.seq p;
      match t.probe with None -> () | Some pr -> pr.on_park p
    end;
    note_buf t ~peer:j p.buf;
    check_gap t ~lsrc:j ~bound:p.seq
  end
  else begin
    (* ACC condition holds; accept, then drain consecutive pending PDUs. *)
    accept t p;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt t.pending.(j) t.req.(j) with
      | Some q ->
        Hashtbl.remove t.pending.(j) q.seq;
        accept t q
      | None -> continue := false
    done
  end

(* RET and CTL PDUs are unsequenced but their ACK vectors are truthful
   receipt confirmations, so they raise AL (sliding flow windows and
   enabling pre-acknowledgment without consuming sequence numbers). The
   exactness of reach vectors, which the paper-era argument tied to
   in-order-only AL updates, is guaranteed by [reach_ready] gating in the
   PACK action instead. *)
let handle_ret t (r : Pdu.ret) =
  Matrix_clock.set_row t.al ~row:r.src r.ack;
  note_buf t ~peer:r.src r.buf;
  scan_acks_for_gaps t ~informant:r.src r.ack;
  if r.lsrc = t.id then begin
    (* Selective retransmission: rebroadcast the requested range, capped at
       two windows per RET so a large gap is repaired in paced rounds
       instead of one burst that would overrun the receiver again. *)
    let lo = r.ack.(t.id) in
    let hi = min r.lseq (lo + (2 * t.config.window)) in
    let pdus = Logs.Sending.range t.sl ~lo ~hi in
    let count =
      List.fold_left
        (fun k (g : Pdu.data) ->
          t.actions.broadcast (Pdu.Data g);
          k + 1)
        0 pdus
    in
    t.metrics.retransmitted <- t.metrics.retransmitted + count;
    notify t (Ret_answered { dst = r.src; count })
  end

let handle_ctl t (c : Pdu.ctl) =
  Matrix_clock.set_row t.al ~row:c.src c.ack;
  note_buf t ~peer:c.src c.buf;
  scan_acks_for_gaps t ~informant:c.src c.ack;
  (* A CTL is only ever sent by an entity with work pending: if we hold
     receipt confirmations it has not seen, flush them even though nothing
     is pending locally — the sender may be flow-blocked on our AL row. *)
  t.prompted <- true

(* PACK action (§4.4): RRL tops whose SEQ < minAL_src move into PRL in
   causality-precedence position; their ACK vectors raise PAL.

   [Config.fault] deliberately miswires the two actions so the checking
   layers can prove they catch real bugs: [Skip_cpi_order] appends to PRL in
   receipt order, [Skip_minpal_gate] acknowledges without the minPAL gate. *)
let pack_scan t =
  (* The reach closure is transitive by construction; only the Direct
     one-hop test needs the lenient full-suffix scan. *)
  let transitive = t.config.causality_mode = Config.Transitive in
  let skip_cpi =
    match t.config.fault with
    | Some Config.Skip_cpi_order -> true
    | Some Config.Skip_minpal_gate | Some Config.Skip_epoch_guard | None ->
      false
  in
  for j = 0 to t.n - 1 do
    (* AL is not touched inside this loop, so the gate is a loop constant. *)
    let bound = minal t j in
    let last_ack = ref None in
    let continue = ref true in
    while !continue do
      match Logs.Receipt.rrl_top t.logs ~src:j with
      | Some p when p.seq < bound && reach_ready t p ->
        ignore (Logs.Receipt.rrl_dequeue t.logs ~src:j);
        (* [reach_ready] already gated the PDU, so its witness is memoized. *)
        let witness = witness_of t p in
        if skip_cpi then Logs.Receipt.prl_append ~witness t.logs p
        else if Logs.Receipt.prl_insert ~transitive ~witness t.logs p then
          t.metrics.cpi_fastpath <- t.metrics.cpi_fastpath + 1;
        last_ack := Some p.ack;
        (match t.probe with None -> () | Some pr -> pr.on_preack p);
        notify t (Preacknowledged p)
      | Some _ | None -> continue := false
    done;
    (* Same-source ACK vectors are pointwise monotone in SEQ (the sender's
       REQ only grows), so one PAL row update with the last drained PDU's
       vector equals updating per PDU — the coalesced-PAL batching. *)
    match !last_ack with
    | Some ack -> Matrix_clock.set_row t.pal ~row:j ack
    | None -> ()
  done

(* ACK action (§4.5): PRL tops whose SEQ < minPAL_src are acknowledged and,
   if they carry data, delivered to the application — in causal order. *)
let ack_scan t =
  let ack_gate (p : Pdu.data) =
    match t.config.fault with
    | Some Config.Skip_minpal_gate -> true
    | Some Config.Skip_cpi_order | Some Config.Skip_epoch_guard | None ->
      p.seq < minpal t p.src
  in
  let batch = ref 0 in
  let continue = ref true in
  while !continue do
    match Logs.Receipt.prl_top t.logs with
    | Some p when ack_gate p ->
      ignore (Logs.Receipt.prl_dequeue t.logs);
      incr batch;
      if t.config.retain_arl then Logs.Receipt.arl_enqueue t.logs p;
      if not (Pdu.is_confirmation p) then begin
        t.undelivered <- t.undelivered - 1;
        t.metrics.delivered <- t.metrics.delivered + 1;
        (* Delivery is part of the acknowledgment action, so the deliver
           stamp fires while the receipt-ladder span is still open. *)
        (match t.probe with None -> () | Some pr -> pr.on_deliver p);
        t.actions.deliver p
      end;
      (match t.probe with None -> () | Some pr -> pr.on_ack p);
      notify t (Acknowledged p)
    | Some _ | None -> continue := false
  done;
  (* PAL does not move inside the drain, so every acknowledgment one scan
     produces is one batch: the size distribution is the batching telemetry
     (co_deliver_batch_size). *)
  if !batch > 0 then begin
    t.metrics.deliver_batches <- t.metrics.deliver_batches + 1;
    match t.probe with None -> () | Some pr -> pr.on_deliver_batch !batch
  end

(* A confirmation is useful only while some data PDU is still unacknowledged
   here: once everything is acknowledged everywhere this entity could learn
   of, staying silent is what lets the cluster reach quiescence (an entity
   that is itself stuck keeps heartbeating, and up-to-date peers answer its
   stale ACK vectors with CTLs — see [maybe_help_stale_peer]).

   Confirmations deliberately bypass the flow window: the window gates data,
   while confirmations ARE the mechanism that slides it — gating them would
   deadlock small windows (every entity waiting for every other's
   confirmation). Under the deferred policy their cadence is additionally
   floored at the defer timeout: confirmations advance REQ at the receivers,
   so without the floor a cluster of idle-but-unacknowledged entities
   confirms each other's confirmations at network round-trip cadence — the
   opposite of what deferral is for. *)
let confirm_now t ~heartbeat =
  let spacing_ok =
    match t.config.defer with
    | Config.Deferred { timeout } ->
      Simtime.compare (t.actions.now ()) (Simtime.add t.last_send_at timeout) >= 0
    | Config.Immediate | Config.Never -> true
  in
  (* Confirmations are owed while (a) some accepted data awaits
     acknowledgment, or (b) our own send queue is flow-blocked — the window
     slides only on peers' AL knowledge of our REQ, so a silent cluster of
     blocked senders would deadlock.

     A sequenced empty PDU is preferred (only sequenced PDUs feed PAL and
     drive the acknowledgment level), but it must stay inside the data
     window so the empties never starve queued data of sequence slots; one
     extra slot is allowed when no data is queued, which bootstraps tiny
     windows. When no sequenced slot is available, fall back to an
     unsequenced CTL broadcast: it still carries the REQ vector, raising AL
     at the peers (window sliding, pre-acknowledgment) for free. *)
  let work_pending =
    t.undelivered > 0 || (not (Queue.is_empty t.dt_queue)) || t.prompted
  in
  t.prompted <- false;
  if spacing_ok && work_pending && (req_changed t || heartbeat) then begin
    let window_eff =
      max 1 (Flow.effective_window ~config:t.config ~n:t.n ~minbuf:(minbuf t))
    in
    let slack = if Queue.is_empty t.dt_queue then 1 else 0 in
    if t.seq < minal_peers t + window_eff + slack then transmit t ~payload:""
    else begin
      let now = t.actions.now () in
      if
        Simtime.compare now
          (Simtime.add t.last_ctl_broadcast_at t.config.ret_retry_timeout)
        >= 0
        || req_changed t
      then begin
        t.last_ctl_broadcast_at <- now;
        t.req_at_last_send <- Array.copy t.req;
        send_ctl_broadcast t
      end
    end
  end

let confirm_needed t = t.undelivered > 0 || not (Queue.is_empty t.dt_queue)

(* The heartbeat re-fires every [timeout] while confirmations are owed, but
   backs off exponentially (up to 64x) when firing makes no progress — under
   processing saturation a fixed-cadence control plane would keep the
   receivers' inboxes full and the flow windows shut forever. Any accepted
   PDU resets the cadence. *)
let rec ensure_heartbeat_armed t ~timeout =
  if (not t.defer_timer_armed) && confirm_needed t then begin
    t.defer_timer_armed <- true;
    let interval = if t.hb_interval < timeout then timeout else t.hb_interval in
    t.actions.set_timer ~delay:interval (fun () ->
        t.defer_timer_armed <- false;
        if t.metrics.accepted = t.accepted_at_last_hb then
          t.hb_interval <- min (interval * 2) (timeout * 64)
        else t.hb_interval <- timeout;
        t.accepted_at_last_hb <- t.metrics.accepted;
        confirm_now t ~heartbeat:true;
        pump t;
        ensure_heartbeat_armed t ~timeout;
        check_step t)
  end

let after_processing t =
  pack_scan t;
  ack_scan t;
  Logs.Sending.prune_below t.sl ~seq:(minal t t.id);
  pump t;
  let occupancy = Logs.Receipt.buffered t.logs in
  if occupancy > t.metrics.peak_buffered then t.metrics.peak_buffered <- occupancy;
  (match t.config.defer with
  | Config.Immediate ->
    if t.need_immediate_confirm || t.prompted then confirm_now t ~heartbeat:false;
    t.need_immediate_confirm <- false;
    t.prompted <- false;
    ensure_heartbeat_armed t ~timeout:t.config.ret_retry_timeout
  | Config.Deferred { timeout } ->
    let all_heard = ref true in
    for j = 0 to t.n - 1 do
      if j <> t.id && not t.heard.(j) then all_heard := false
    done;
    if (!all_heard && req_changed t) || t.prompted then
      confirm_now t ~heartbeat:false;
    ensure_heartbeat_armed t ~timeout
  | Config.Never -> t.prompted <- false);
  check_step t

(* The cid comparison doubles as the membership layer's epoch fence: each
   epoch's view runs under a distinct epoch-stamped cid, so a straggler from
   a closed epoch fails the test and dies here, before any protocol state
   can absorb it. [Skip_epoch_guard] removes the fence so the checking
   layers can prove they would catch a cross-epoch leak. *)
let ours t pdu =
  match t.config.fault with
  | Some Config.Skip_epoch_guard -> true
  | Some Config.Skip_minpal_gate | Some Config.Skip_cpi_order | None -> (
    match pdu with
    | Pdu.Data d -> d.cid = t.config.cid
    | Pdu.Ret r -> r.cid = t.config.cid
    | Pdu.Ctl c -> c.cid = t.config.cid)

let handle t pdu =
  match pdu with
  | Pdu.Data d -> handle_data t d
  | Pdu.Ret r -> handle_ret t r
  | Pdu.Ctl c -> handle_ctl t c

let receive t pdu =
  if ours t pdu then begin
    handle t pdu;
    after_processing t
  end

(* A datagram burst shares one [after_processing]: the PACK/ACK scans, the
   sending-log prune, the pump and (in Immediate mode) the confirmation
   are all idempotent drains whose cost the per-PDU path pays once per
   PDU, so coalescing them across a batch is where the v2 wire's batched
   datagrams turn into receive-path throughput. Handlers only mutate
   RRL/pending/AL state, exactly as when the same PDUs arrive back to
   back, so the observable protocol behavior is unchanged — one (possibly
   empty) confirmation answers the whole burst instead of one each. *)
let receive_batch t pdus =
  let handled = ref false in
  List.iter
    (fun pdu ->
      if ours t pdu then begin
        handled := true;
        handle t pdu
      end)
    pdus;
  if !handled then after_processing t

let submit t payload =
  (match t.probe with None -> () | Some p -> p.on_submit ());
  let sent =
    if flow_ok t && Queue.is_empty t.dt_queue then begin
      transmit t ~payload;
      true
    end
    else begin
      Queue.push payload t.dt_queue;
      t.metrics.flow_blocked <- t.metrics.flow_blocked + 1;
      (match t.config.defer with
      | Config.Immediate ->
        ensure_heartbeat_armed t ~timeout:t.config.ret_retry_timeout
      | Config.Deferred { timeout } -> ensure_heartbeat_armed t ~timeout
      | Config.Never -> ());
      false
    end
  in
  check_step t;
  sent

(* Recovery entry point: announce our REQ vector so peers' anti-entropy can
   tell us what we missed, re-issue RETs for gaps we already know about, and
   re-arm the timers a restart (or a stall the watchdog detected) may have
   lost. Safe to call at any time — every action is one the protocol could
   have taken on its own. *)
let kick t =
  t.last_ctl_broadcast_at <- t.actions.now ();
  send_ctl_broadcast t;
  for j = 0 to t.n - 1 do
    if j <> t.id then
      match Failure.outstanding t.fails ~lsrc:j with
      | Some (bound, _) ->
        send_ret t ~lsrc:j ~lseq:bound;
        arm_ret_timer t j
      | None -> ()
  done;
  (match t.config.defer with
  | Config.Immediate ->
    ensure_heartbeat_armed t ~timeout:t.config.ret_retry_timeout
  | Config.Deferred { timeout } -> ensure_heartbeat_armed t ~timeout
  | Config.Never -> ());
  check_step t

(* Inspection *)

(* Hashtbl iteration order is unspecified, but the signature digest, the
   checkpoint format and [pending_seqs] all need a canonical one. *)
let sorted_keys tbl =
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* Canonical digest of every behavior-relevant piece of mutable state: the
   model checker's notion of "same state". Excludes the observers, the
   derived reach memo-table and pure counters; includes the control-flow
   flags and logs. Timestamps enter only as "has this ever happened" flags —
   the explorer runs on frozen virtual time (now = 0, initial sentinels
   negative), where that is the full story; under a live clock the digest is
   still well-defined but two states differing only in wall-time history may
   collide, which a safety checker can tolerate. *)
let signature t =
  let b = Buffer.create 1024 in
  let addi i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'
  in
  let addb v = addi (if v then 1 else 0) in
  let add_arr a = Array.iter addi a in
  let add_flag_arr a = Array.iter (fun ts -> addb (Simtime.compare ts 0 >= 0)) a in
  let add_pdu (p : Pdu.data) =
    let s = Bytes.to_string (Codec.encode (Pdu.Data p)) in
    addi (String.length s);
    Buffer.add_string b s
  in
  addi t.seq;
  add_arr t.req;
  for j = 0 to t.n - 1 do
    add_arr (Matrix_clock.row t.al j)
  done;
  for j = 0 to t.n - 1 do
    add_arr (Matrix_clock.row t.pal j)
  done;
  add_arr t.buf;
  add_flag_arr t.buf_at;
  addi (Logs.Sending.low_seq t.sl);
  for s = Logs.Sending.low_seq t.sl to Logs.Sending.last_seq t.sl do
    match Logs.Sending.find t.sl ~seq:s with
    | Some p -> add_pdu p
    | None -> addi (-1)
  done;
  for j = 0 to t.n - 1 do
    addi (-2);
    List.iter add_pdu (Logs.Receipt.rrl_to_list t.logs ~src:j)
  done;
  addi (-3);
  List.iter add_pdu (Logs.Receipt.prl_to_list t.logs);
  for j = 0 to t.n - 1 do
    addi (-4);
    List.iter addi (sorted_keys t.pending.(j))
  done;
  addi (-5);
  Queue.iter
    (fun payload ->
      addi (String.length payload);
      Buffer.add_string b payload)
    t.dt_queue;
  for j = 0 to t.n - 1 do
    addi (-6);
    match Failure.outstanding t.fails ~lsrc:j with
    | None -> addi 0
    | Some (bound, at) ->
      addi bound;
      addb (Simtime.compare at 0 >= 0)
  done;
  Array.iter addb t.heard;
  add_arr t.req_at_last_send;
  addb t.need_immediate_confirm;
  addb t.prompted;
  addb t.defer_timer_armed;
  (* hb_interval, accepted_at_last_hb, ret_backoff, the jitter rng and the
     metrics counters are deliberately absent: they feed only timer *delays*
     (the heartbeat and RET backoff ladders), which cannot influence
     behavior when time is frozen — including them would multiply every
     explored state by the ladder. *)
  Array.iter addb t.ret_timer_armed;
  add_flag_arr t.last_ctl_to;
  addb (Simtime.compare t.last_send_at 0 >= 0);
  addb (Simtime.compare t.last_ctl_broadcast_at 0 >= 0);
  addi t.undelivered;
  Digest.to_hex (Digest.string (Buffer.contents b))

let seq_next t = t.seq
let epoch t = t.config.Config.epoch

(* Barrier harvest (membership layer): any copy of (src, seq) still held on
   the receive side — parked, accepted, pre-acknowledged or (with
   [retain_arl]) acknowledged — or, for our own PDUs, in the sending log.
   Used to re-home a departed source's PDUs to survivors that miss them;
   correctness only needs SOME member to still hold each such PDU, which the
   acceptance rules guarantee for everything above the receivers' REQ. *)
let find_received t ~src ~seq =
  if src < 0 || src >= t.n then None
  else
    let in_list ps =
      List.find_opt (fun (p : Pdu.data) -> p.src = src && p.seq = seq) ps
    in
    let ( <|> ) a b = match a with Some _ -> a | None -> b () in
    (if src = t.id then Logs.Sending.find t.sl ~seq else None)
    <|> (fun () -> Hashtbl.find_opt t.pending.(src) seq)
    <|> (fun () -> in_list (Logs.Receipt.rrl_to_list t.logs ~src))
    <|> (fun () -> in_list (Logs.Receipt.prl_to_list t.logs))
    <|> (fun () -> in_list (Logs.Receipt.arl_to_list t.logs))

(* View-change barrier epilogue (membership layer): [req_matrix] is the
   reconciled REQ matrix of the closing epoch — row [j] is member [j]'s
   final REQ vector, collected over the control plane after gap repair, so
   it is a PROOF that every PDU below its column minima was accepted by
   every member. Raising the AL and PAL rows to it substitutes that proof
   for the conservative per-PDU gates, and the ordinary PACK/ACK scans then
   flush every accepted PDU through the PRL to the application in CPI
   order. Pure knowledge injection: no PDU is sent, nothing is skipped —
   each scan still runs its own gate, which now passes. *)
let close_epoch t ~req_matrix =
  if Array.length req_matrix <> t.n then
    invalid_arg "Entity.close_epoch: REQ matrix must have n rows";
  Array.iter
    (fun row ->
      if Array.length row <> t.n then
        invalid_arg "Entity.close_epoch: REQ matrix row length mismatch")
    req_matrix;
  Array.iteri
    (fun j row ->
      Matrix_clock.set_row t.al ~row:j row;
      Matrix_clock.set_row t.pal ~row:j row)
    req_matrix;
  pack_scan t;
  ack_scan t;
  Logs.Sending.prune_below t.sl ~seq:(minal t t.id);
  check_step t
let req t = Array.copy t.req
let al_matrix t = Matrix_clock.copy t.al
let pal_matrix t = Matrix_clock.copy t.pal
let rrl_length t ~src = Logs.Receipt.rrl_length t.logs ~src
let prl_list t = Logs.Receipt.prl_to_list t.logs
let arl_list t = Logs.Receipt.arl_to_list t.logs
let buffered t = Logs.Receipt.buffered t.logs
let pending_count t =
  Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.pending
let queued_requests t = Queue.length t.dt_queue
let undelivered_data t = t.undelivered
let backlog t = undelivered_data t + pending_count t + queued_requests t
let metrics t = t.metrics
let config t = t.config
let rrl_list t ~src = Logs.Receipt.rrl_to_list t.logs ~src

let pending_seqs t ~src = sorted_keys t.pending.(src)

let set_step_checker t f = t.step_checker <- Some f

(* --- Checkpoint / restore (stable-storage model for crash recovery) ---

   A checkpoint is a self-describing blob of the state a rejoining entity
   cannot rebuild from the network: its sequencing position (SEQ, REQ), the
   AL/PAL knowledge matrices, the four logs, parked out-of-sequence PDUs,
   flow-blocked requests, and the accepted-header table that Transitive
   causality needs to compute reach vectors. Wall-clock state (timers,
   buffer-advertisement ages, backoff ladders, outstanding-RET bookkeeping)
   is deliberately NOT saved: it is meaningless after downtime, and
   {!kick} re-derives it from the peers.

   Format: a version line, then integers in decimal separated by newlines;
   PDUs and payloads as length-prefixed byte blocks ({!Codec} wire encoding
   for PDUs). Purely sequential, so the reader is a cursor with two
   primitives. *)

let ckpt_magic = "co-checkpoint-v1"

let checkpoint t =
  let b = Buffer.create 4096 in
  let wi i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b '\n'
  in
  let wblock s =
    wi (String.length s);
    Buffer.add_string b s
  in
  let wpdu (p : Pdu.data) = wblock (Bytes.to_string (Codec.encode (Pdu.Data p))) in
  let wpdus ps =
    wi (List.length ps);
    List.iter wpdu ps
  in
  Buffer.add_string b ckpt_magic;
  Buffer.add_char b '\n';
  wi t.id;
  wi t.n;
  wi t.seq;
  Array.iter wi t.req;
  for j = 0 to t.n - 1 do
    Array.iter wi (Matrix_clock.row t.al j)
  done;
  for j = 0 to t.n - 1 do
    Array.iter wi (Matrix_clock.row t.pal j)
  done;
  Array.iter wi t.buf;
  wi (Logs.Sending.low_seq t.sl);
  wi (Logs.Sending.last_seq t.sl);
  wpdus
    (Logs.Sending.range t.sl ~lo:(Logs.Sending.low_seq t.sl)
       ~hi:(Logs.Sending.last_seq t.sl + 1));
  for j = 0 to t.n - 1 do
    wpdus (Logs.Receipt.rrl_to_list t.logs ~src:j)
  done;
  wpdus (Logs.Receipt.prl_to_list t.logs);
  wpdus (Logs.Receipt.arl_to_list t.logs);
  for j = 0 to t.n - 1 do
    let seqs = sorted_keys t.pending.(j) in
    wi (List.length seqs);
    List.iter (fun s -> wpdu (Hashtbl.find t.pending.(j) s)) seqs
  done;
  wi (Queue.length t.dt_queue);
  Queue.iter wblock t.dt_queue;
  (* Seq-indexed iteration is already (src, seq)-ascending — the order the
     hashtable-era format fixed by sorting its keys. *)
  let nh = ref 0 in
  Array.iter
    (Array.iter (function Some _ -> incr nh | None -> ()))
    t.headers;
  wi !nh;
  for src = 0 to t.n - 1 do
    Array.iteri
      (fun seq -> function
        | Some ack ->
          wi src;
          wi seq;
          Array.iter wi ack
        | None -> ())
      t.headers.(src)
  done;
  Buffer.contents b

let header_entries t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for seq = Array.length t.headers.(src) - 1 downto 0 do
      match t.headers.(src).(seq) with
      | Some ack -> acc := (src, seq, Array.copy ack) :: !acc
      | None -> ()
    done
  done;
  !acc

(* The canonical post-barrier checkpoint, built from data instead of from a
   live entity. After a view-change barrier every survivor's state collapses
   to the same thing — a common REQ vector (everyone accepted everything),
   AL = PAL = that vector in every row, empty logs, a fully pruned sending
   log — plus the accepted-header table, which Transitive-mode reach
   computation still needs when later ACK vectors refer back across the
   epoch boundary. The membership layer writes each member's next-epoch
   state with this (ranks and vectors already remapped to the new view) and
   ships the same bytes to a joiner as the sponsor's state transfer, so a
   survivor's rebuild and a joiner's bootstrap go through one code path:
   {!restore}. *)
let bootstrap_checkpoint ~config ~id ~n ~req ~headers =
  Config.validate config;
  if n < 2 then invalid_arg "Entity.bootstrap_checkpoint: n must be >= 2";
  if id < 0 || id >= n then
    invalid_arg "Entity.bootstrap_checkpoint: id out of range";
  if Array.length req <> n then
    invalid_arg "Entity.bootstrap_checkpoint: REQ length mismatch";
  Array.iter
    (fun v ->
      if v < 1 then
        invalid_arg "Entity.bootstrap_checkpoint: REQ components start at 1")
    req;
  List.iter
    (fun (src, seq, ack) ->
      if src < 0 || src >= n then
        invalid_arg "Entity.bootstrap_checkpoint: header src out of range";
      if seq < 1 || seq >= req.(src) then
        invalid_arg "Entity.bootstrap_checkpoint: header seq outside REQ";
      if Array.length ack <> n then
        invalid_arg "Entity.bootstrap_checkpoint: header ACK length mismatch")
    headers;
  let headers =
    List.sort
      (fun (s1, q1, _) (s2, q2, _) ->
        match Int.compare s1 s2 with 0 -> Int.compare q1 q2 | c -> c)
      headers
  in
  let b = Buffer.create 4096 in
  let wi i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b '\n'
  in
  Buffer.add_string b ckpt_magic;
  Buffer.add_char b '\n';
  wi id;
  wi n;
  wi req.(id);
  Array.iter wi req;
  for _row = 1 to 2 * n do
    Array.iter wi req
  done;
  for _j = 1 to n do
    wi config.Config.initial_buf
  done;
  (* Sending log fully pruned: retained range [seq .. seq-1], no PDUs. *)
  wi req.(id);
  wi (req.(id) - 1);
  wi 0;
  for _j = 1 to n do
    wi 0 (* empty RRL_j *)
  done;
  wi 0;
  (* empty PRL *)
  wi 0;
  (* empty ARL *)
  for _j = 1 to n do
    wi 0 (* no parked PDUs *)
  done;
  wi 0;
  (* no queued requests *)
  wi (List.length headers);
  List.iter
    (fun (src, seq, ack) ->
      wi src;
      wi seq;
      Array.iter wi ack)
    headers;
  Buffer.contents b

type restore_error =
  | Bad_magic
  | Truncated of int
  | Malformed of { at : int; what : string }
  | Mismatch of { field : string; expected : int; got : int }
  | Invalid_state of string

let pp_restore_error ppf = function
  | Bad_magic -> Format.pp_print_string ppf "not a co-checkpoint-v1 blob"
  | Truncated at -> Format.fprintf ppf "truncated at byte %d" at
  | Malformed { at; what } -> Format.fprintf ppf "at byte %d: %s" at what
  | Mismatch { field; expected; got } ->
    Format.fprintf ppf "checkpoint is for %s %d, expected %d" field got
      expected
  | Invalid_state msg -> Format.fprintf ppf "impossible entity state: %s" msg

exception Corrupt of restore_error

let restore ?expect_id ?expect_n ~config ~actions blob =
  let pos = ref 0 in
  let len = String.length blob in
  let fail e = raise (Corrupt e) in
  let faili fmt = Printf.ksprintf (fun m -> fail (Invalid_state m)) fmt in
  let rline () =
    match String.index_from_opt blob !pos '\n' with
    | None -> fail (Truncated !pos)
    | Some nl ->
      let s = String.sub blob !pos (nl - !pos) in
      pos := nl + 1;
      s
  in
  let ri () =
    let s = rline () in
    match int_of_string_opt s with
    | Some i -> i
    | None ->
      fail (Malformed { at = !pos; what = Printf.sprintf "expected integer, got %S" s })
  in
  let rblock () =
    let n = ri () in
    if n < 0 || !pos + n > len then fail (Truncated !pos);
    let s = String.sub blob !pos n in
    pos := !pos + n;
    s
  in
  match
    (* A blob whose first line is absent or wrong was never a checkpoint;
       [Truncated] is reserved for blobs that pass the magic check. *)
    if String.index_opt blob '\n' = None then fail Bad_magic;
    if rline () <> ckpt_magic then fail Bad_magic;
    let id = ri () in
    let n = ri () in
    if n < 2 then faili "cluster size %d (needs at least 2 members)" n;
    if id < 0 || id >= n then faili "id %d outside cluster of %d" id n;
    (match expect_n with
    | Some e when e <> n -> fail (Mismatch { field = "cluster size"; expected = e; got = n })
    | Some _ | None -> ());
    (match expect_id with
    | Some e when e <> id -> fail (Mismatch { field = "entity id"; expected = e; got = id })
    | Some _ | None -> ());
    (* A data PDU re-entering the logs must be shaped for THIS cluster:
       a foreign-size ACK vector would index out of bounds (or silently
       misinform the clocks) far from here. *)
    let rpdu () =
      let at = !pos in
      match Codec.decode (Bytes.of_string (rblock ())) with
      | Ok (Pdu.Data d) ->
        if Array.length d.ack <> n then
          faili "PDU (%d,%d) carries a %d-member ACK vector in a %d-member cluster"
            d.src d.seq (Array.length d.ack) n;
        if d.src < 0 || d.src >= n then
          faili "PDU source %d outside cluster of %d" d.src n;
        if d.seq < 1 then faili "PDU (%d,%d): sequence numbers start at 1" d.src d.seq;
        d
      | Ok (Pdu.Ret _ | Pdu.Ctl _) ->
        fail (Malformed { at; what = "non-data PDU in checkpoint" })
      | Error e ->
        fail
          (Malformed
             { at; what = "undecodable PDU: " ^ Format.asprintf "%a" Codec.pp_error e })
    in
    let rpdus () = List.init (ri ()) (fun _ -> rpdu ()) in
    let t = create ~config ~id ~n ~actions in
    t.seq <- ri ();
    if t.seq < 1 then faili "next sequence number %d (starts at 1)" t.seq;
    for j = 0 to n - 1 do
      t.req.(j) <- ri ();
      if t.req.(j) < 1 then faili "REQ_%d = %d (starts at 1)" j t.req.(j)
    done;
    if t.req.(id) > t.seq then
      faili "REQ_self = %d ahead of own next seq %d" t.req.(id) t.seq;
    let rrow () = Array.init n (fun _ -> ri ()) in
    for j = 0 to n - 1 do
      Matrix_clock.set_row t.al ~row:j (rrow ())
    done;
    for j = 0 to n - 1 do
      Matrix_clock.set_row t.pal ~row:j (rrow ())
    done;
    (* Clock shape: rows were folded monotonically from init 1, so any
       sub-1 cell was silently clamped — and PAL can never outrun AL
       (every PAL raise re-applied an AL raise). A blob violating either
       describes a state the protocol cannot reach. *)
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        let a = Matrix_clock.get t.al ~row:j ~col:k in
        let p = Matrix_clock.get t.pal ~row:j ~col:k in
        if p > a then faili "PAL[%d][%d] = %d exceeds AL[%d][%d] = %d" j k p j k a
      done
    done;
    for j = 0 to n - 1 do
      t.buf.(j) <- ri ();
      if t.buf.(j) < 0 then faili "negative advertised buffer for %d" j
    done;
    let sl_low = ri () in
    let sl_last = ri () in
    if sl_low < 1 || sl_last < sl_low - 1 then
      faili "sending-log range [%d..%d]" sl_low sl_last;
    if sl_last >= t.seq then
      faili "sending log retains seq %d at or beyond next seq %d" sl_last t.seq;
    let sl_pdus = rpdus () in
    List.iter
      (fun (p : Pdu.data) ->
        if p.src <> id then
          faili "sending log holds a PDU from %d (entity is %d)" p.src id)
      sl_pdus;
    (match
       Logs.Sending.reload t.sl ~low:sl_low ~last:sl_last sl_pdus
     with
    | () -> ()
    | exception Invalid_argument m -> faili "sending log: %s" m);
    for j = 0 to n - 1 do
      List.iter
        (fun (p : Pdu.data) ->
          if p.src <> j then faili "RRL_%d holds a PDU from %d" j p.src;
          Logs.Receipt.rrl_enqueue t.logs ~src:j p)
        (rpdus ())
    done;
    (* PRL order is part of the service guarantee: append in saved order
       rather than re-running CPI, whose tie-breaks need not be unique. The
       appends happen after the header section below is read, so Transitive
       restores can compute each resident's reach witness. *)
    let prl_pdus = rpdus () in
    List.iter (Logs.Receipt.arl_enqueue t.logs) (rpdus ());
    for j = 0 to n - 1 do
      List.iter
        (fun (p : Pdu.data) ->
          if p.src <> j then faili "pending slot %d holds a PDU from %d" j p.src;
          if p.seq <= t.req.(j) then
            faili "parked PDU (%d,%d) at or below REQ_%d = %d" j p.seq j t.req.(j);
          Hashtbl.replace t.pending.(j) p.seq p)
        (rpdus ())
    done;
    let nq = ri () in
    for _ = 1 to nq do
      Queue.push (rblock ()) t.dt_queue
    done;
    let nh = ri () in
    for _ = 1 to nh do
      let src = ri () in
      let seq = ri () in
      if src < 0 || src >= n || seq < 1 then
        faili "header key (%d,%d) out of range" src seq;
      store_set t.headers src seq (rrow ())
    done;
    if !pos <> len then
      fail (Malformed { at = !pos; what = Printf.sprintf "%d trailing bytes" (len - !pos) });
    (* Residents carry the witness [pack_scan] would have stored: later
       insertions are ordered against it, and in Transitive mode [maxack]
       must accumulate reach + 1, or a post-restore fast-path append could
       land after a transitive successor the raw ACKs do not reveal. *)
    List.iter
      (fun p -> Logs.Receipt.prl_append ~witness:(witness_of t p) t.logs p)
      prl_pdus;
    (* Derived state: data PDUs accepted but not yet acknowledged sit in
       the RRLs and the PRL. *)
    let count_data ps =
      List.length
        (List.filter (fun (p : Pdu.data) -> not (Pdu.is_confirmation p)) ps)
    in
    t.undelivered <- count_data (Logs.Receipt.prl_to_list t.logs);
    for j = 0 to n - 1 do
      t.undelivered <-
        t.undelivered + count_data (Logs.Receipt.rrl_to_list t.logs ~src:j)
    done;
    check_step t;
    t
  with
  | t -> Ok t
  | exception Corrupt e -> Error e
