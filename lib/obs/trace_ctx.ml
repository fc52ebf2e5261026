type span = {
  entity : int;
  incarnation : int;
  src : int;
  seq : int;
  trace_id : int64;
  t_send : int;
  t_recv : int;
  parked : bool;
  t_accept : int;
  t_preack : int;
  t_deliver : int;
}

(* splitmix64 finalizer: full-avalanche 64-bit mix, the same construction
   Prng is built on, so ids inherit its distribution quality. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let id ~salt ~src ~seq =
  (* (src, seq) packed injectively: seq is bounded far below 2^48. *)
  let key = Int64.of_int ((src lsl 48) lxor seq) in
  mix64 (Int64.add salt (mix64 key))

let salt_of_seed ~seed =
  let g = Repro_util.Prng.split (Repro_util.Prng.create ~seed) in
  Repro_util.Prng.bits64 g

(* One (entity, PDU) on its way up the ladder. -1 marks a stamp not yet
   taken; [p_accept >= 0] is an open span. A [p_dead] partial is a span an
   entity crash abandoned: it holds no stamps and only absorbs the
   restarted incarnation's remaining ladder stamps until its ack. *)
type partial = {
  mutable p_recv : int;
  mutable p_parked : bool;
  mutable p_accept : int;
  mutable p_preack : int;
  mutable p_dead : bool;
}

type hists = {
  h_queue : Registry.histo;
  h_accept : Registry.histo;
  h_preack : Registry.histo;
  h_ack : Registry.histo;
  h_deliver : Registry.histo;
  h_batch : Registry.histo;
}

type t = {
  registry : Registry.t option;
  hists : hists option;
  salt : int64 option; (* Some iff completed spans are kept *)
  mutable members : int; (* acknowledgments that retire a stamp *)
  send_at : (int * int, int * int) Hashtbl.t;
      (* (src, seq) -> (first send, members that acknowledged it) *)
  submit_q : (int, int Queue.t) Hashtbl.t; (* src -> pending submit times *)
  partials : (int * int * int, partial) Hashtbl.t; (* (entity, src, seq) *)
  mutable rev_spans : span list;
  mutable opened : int;
  mutable closed : int;
  mutable abandoned : int;
  mutable close_errs : int;
  mutable order_errs : int;
  mutable incomplete : int;
}
[@@coaudit.allow
  "per-run receipt-ladder recorder: owned by one cluster, stamped from its \
   single-threaded probe callbacks"]

let stage_help =
  "Latency from a sequenced PDU's first broadcast to each receipt-ladder \
   level, across all receiving entities"

let hists reg =
  let stage s =
    Registry.histogram reg ~help:stage_help ~scale:1e-6
      ~name:"co_ladder_stage_seconds"
      [ ("stage", s) ]
  in
  {
    h_queue =
      Registry.histogram reg
        ~help:"Flow-condition queueing delay: application submit to first send"
        ~scale:1e-6 ~name:"co_submit_queue_seconds" [];
    h_accept = stage "accept";
    h_preack = stage "preack";
    h_ack = stage "ack";
    h_deliver = stage "deliver";
    h_batch =
      Registry.histogram reg
        ~help:
          "Acknowledgments drained per ACK scan (a count, not seconds): the \
           coalescing the batched minPAL drain achieves"
        ~name:"co_deliver_batch_size" [];
  }

let create ?registry ?salt ~members () =
  {
    registry;
    hists = Option.map hists registry;
    salt;
    members;
    send_at = Hashtbl.create 1024;
    submit_q = Hashtbl.create 16;
    partials = Hashtbl.create 1024;
    rev_spans = [];
    opened = 0;
    closed = 0;
    abandoned = 0;
    close_errs = 0;
    order_errs = 0;
    incomplete = 0;
  }

let registry t = t.registry
let salt t = t.salt

(* A latency sample: negative means a clock regression or a stamp out of
   order; the sample is only kept when histograms are. *)
let latency t pick d =
  if d < 0 then t.order_errs <- t.order_errs + 1
  else match t.hists with Some h -> Registry.observe (pick h) d | None -> ()

let stage t pick ~src ~seq ~now =
  match Hashtbl.find_opt t.send_at (src, seq) with
  | None -> () (* never saw the send: foreign or pre-instrumentation PDU *)
  | Some (t0, _) -> latency t pick (now - t0)

let on_submit t ~src ~now =
  let q =
    match Hashtbl.find_opt t.submit_q src with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.submit_q src q;
      q
  in
  Queue.push now q

let on_send t ~src ~seq ~data ~now =
  let key = (src, seq) in
  if not (Hashtbl.mem t.send_at key) then begin
    Hashtbl.add t.send_at key (now, 0);
    if data then begin
      (* Sequenced data PDUs leave the source in submission order (the
         dt_queue is a FIFO and fresh submissions only bypass it when it is
         empty), so the oldest pending submit stamp is this PDU's. *)
      match Hashtbl.find_opt t.submit_q src with
      | Some q when not (Queue.is_empty q) ->
        latency t (fun h -> h.h_queue) (now - Queue.pop q)
      | Some _ | None -> ()
    end
  end

let fresh ~dead =
  { p_recv = -1; p_parked = false; p_accept = -1; p_preack = -1; p_dead = dead }

let partial_of t key =
  match Hashtbl.find_opt t.partials key with
  | Some p -> p
  | None ->
    let p = fresh ~dead:false in
    Hashtbl.add t.partials key p;
    p

(* A pre-ack or deliver stamp on a span that is not open is a span bug —
   unless a crash abandoned the span and the restarted incarnation is
   finishing its ladder from the checkpoint. *)
let not_open t = function
  | Some { p_dead = true; _ } -> ()
  | Some _ | None -> t.order_errs <- t.order_errs + 1

let on_receive t ~entity ~src ~seq ~now =
  if Option.is_some t.salt then begin
    let p = partial_of t (entity, src, seq) in
    if p.p_recv < 0 then p.p_recv <- now
  end

let on_park t ~entity ~src ~seq =
  if Option.is_some t.salt then (partial_of t (entity, src, seq)).p_parked <- true

let on_accept t ~entity ~src ~seq ~data ~now =
  if data then begin
    let p = partial_of t (entity, src, seq) in
    if p.p_accept >= 0 then t.order_errs <- t.order_errs + 1
    else begin
      p.p_accept <- now;
      p.p_dead <- false;
      t.opened <- t.opened + 1
    end
  end;
  stage t (fun h -> h.h_accept) ~src ~seq ~now

let on_preack t ~entity ~src ~seq ~data ~now =
  (if data then
     match Hashtbl.find_opt t.partials (entity, src, seq) with
     | Some p when p.p_accept >= 0 -> if p.p_preack < 0 then p.p_preack <- now
     | found -> not_open t found);
  stage t (fun h -> h.h_preack) ~src ~seq ~now

let complete t ~entity ~incarnation ~src ~seq ~now salt p =
  match Hashtbl.find_opt t.send_at (src, seq) with
  | Some (t_send, _) when p.p_recv >= 0 && p.p_preack >= 0 ->
    t.rev_spans <-
      {
        entity;
        incarnation;
        src;
        seq;
        trace_id = id ~salt ~src ~seq;
        t_send;
        t_recv = p.p_recv;
        parked = p.p_parked;
        t_accept = p.p_accept;
        t_preack = p.p_preack;
        t_deliver = now;
      }
      :: t.rev_spans
  | Some _ | None -> t.incomplete <- t.incomplete + 1

let on_deliver t ~entity ~incarnation ~src ~seq ~now =
  (match Hashtbl.find_opt t.partials (entity, src, seq) with
  | Some p when p.p_accept >= 0 -> (
    match t.salt with
    | Some salt -> complete t ~entity ~incarnation ~src ~seq ~now salt p
    | None -> ())
  | found ->
    not_open t found;
    if Option.is_some t.salt then t.incomplete <- t.incomplete + 1);
  stage t (fun h -> h.h_deliver) ~src ~seq ~now

let on_ack t ~entity ~src ~seq ~data ~now =
  (if data then
     let key = (entity, src, seq) in
     match Hashtbl.find_opt t.partials key with
     | Some p when p.p_accept >= 0 ->
       Hashtbl.remove t.partials key;
       t.closed <- t.closed + 1
     | Some { p_dead = true; _ } -> Hashtbl.remove t.partials key
     | Some _ | None -> t.close_errs <- t.close_errs + 1);
  (* Acknowledgment is the last stage that reads the first-send stamp: once
     every member has acknowledged the PDU, nothing can read it again. *)
  let key = (src, seq) in
  match Hashtbl.find_opt t.send_at key with
  | None -> ()
  | Some (t0, acked) ->
    latency t (fun h -> h.h_ack) (now - t0);
    if acked + 1 = t.members then Hashtbl.remove t.send_at key
    else Hashtbl.replace t.send_at key (t0, acked + 1)

let on_deliver_batch t ~size =
  match t.hists with
  | Some h when size > 0 -> Registry.observe h.h_batch size
  | Some _ | None -> ()

let abandon_entity t ~entity ~incarnation =
  let cut_short = ref 0 in
  Hashtbl.filter_map_inplace
    (fun (e, _, _) p ->
      if e <> entity then Some p
      else if p.p_accept >= 0 || p.p_dead then begin
        if p.p_accept >= 0 then incr cut_short;
        Some (fresh ~dead:true)
      end
      else None (* received, not yet accepted: re-stamped after restart *))
    t.partials;
  if !cut_short > 0 then begin
    t.abandoned <- t.abandoned + !cut_short;
    match t.registry with
    | None -> ()
    | Some reg ->
      Registry.inc ~by:!cut_short
        (Registry.counter reg
           ~help:
             "Receipt-ladder spans cut short by an entity crash, tagged with \
              the incarnation that died; abandoned spans are closed, never \
              stitched onto the restarted incarnation"
           ~name:"co_spans_abandoned_total"
           [
             ("entity", string_of_int entity);
             ("incarnation", string_of_int incarnation);
           ])
  end

let cut t ~members =
  t.members <- members;
  Hashtbl.reset t.send_at;
  Hashtbl.reset t.submit_q;
  Hashtbl.reset t.partials

type ladder = {
  queue : Histogram.snapshot;
  accept : Histogram.snapshot;
  preack : Histogram.snapshot;
  ack : Histogram.snapshot;
  deliver : Histogram.snapshot;
}

let ladder t =
  Option.map
    (fun h ->
      {
        queue = Registry.histo_snapshot h.h_queue;
        accept = Registry.histo_snapshot h.h_accept;
        preack = Registry.histo_snapshot h.h_preack;
        ack = Registry.histo_snapshot h.h_ack;
        deliver = Registry.histo_snapshot h.h_deliver;
      })
    t.hists

let send_stamps t = Hashtbl.length t.send_at
let spans t = List.rev t.rev_spans
let spans_opened t = t.opened
let spans_closed t = t.closed
let abandoned t = t.abandoned
let open_spans t = t.opened - t.closed - t.abandoned
let close_errors t = t.close_errs
let order_errors t = t.order_errs
let incomplete t = t.incomplete
