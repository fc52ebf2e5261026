(* Per-layer accumulator for the traced reps of a run: span durations,
   call counts and the protocol counters summed over the traced reps,
   turned into the [per_layer] metrics of BENCHMARK.json by {!metrics}.

   Every workload reports every metric. Where a workload lacks a layer's
   real component the nearest boundary stands in, as BENCHMARK.md
   explains: on [ingest_n8] the "transport" is the in-process medium that
   replaces the sockets (submit = framing the peers' batch, step = one
   decode + receive + loopback drain). *)

open Common

type t = {
  spans : Spans.t;
  submit_us : Fbuf.t;
  step_us : Fbuf.t;
  scrape_ms : Fbuf.t;
  late_ms : Fbuf.t;
  accept_ms : Fbuf.t;
  preack_ms : Fbuf.t;
  ack_ms : Fbuf.t;
  mutable steps : int;
  mutable recv_datagrams : int;
  mutable dropped : int;
  mutable decode_errors : int;
  mutable encode_ns : int;
  mutable encode_pdus : int;
  mutable decode_ns : int;
  mutable decode_pdus : int;
  mutable receive_ns : int;
  mutable receive_pdus : int;
  mutable messages : int;
  mutable deliveries : int;
  mutable datagrams : int;
  mutable wire_pdus : int;
  mutable header_bytes : int;
  mutable minor_words : float;
  mutable major_collections : int;
  counters : Repro_core.Metrics.t;
}

let create () =
  {
    spans = Spans.create ~cap:100_000;
    submit_us = Fbuf.create ();
    step_us = Fbuf.create ();
    scrape_ms = Fbuf.create ();
    late_ms = Fbuf.create ();
    accept_ms = Fbuf.create ();
    preack_ms = Fbuf.create ();
    ack_ms = Fbuf.create ();
    steps = 0;
    recv_datagrams = 0;
    dropped = 0;
    decode_errors = 0;
    encode_ns = 0;
    encode_pdus = 0;
    decode_ns = 0;
    decode_pdus = 0;
    receive_ns = 0;
    receive_pdus = 0;
    messages = 0;
    deliveries = 0;
    datagrams = 0;
    wire_pdus = 0;
    header_bytes = 0;
    minor_words = 0.;
    major_collections = 0;
    counters = Repro_core.Metrics.create ();
  }

(* [timed t layer name f] runs [f], records its span and returns
   [(result, duration_ns)]. *)
let timed t layer name f =
  let a = now_ns () in
  let r = f () in
  let b = now_ns () in
  Spans.record t.spans layer name ~start_ns:a ~stop_ns:b;
  (r, b - a)

let encode t name f ~pdus =
  let r, ns = timed t Spans.Pdu name f in
  t.encode_ns <- t.encode_ns + ns;
  t.encode_pdus <- t.encode_pdus + pdus;
  r

let decode t bytes =
  let r, ns = timed t Spans.Pdu "Codec.decode_any" (fun () ->
      Repro_pdu.Codec.decode_any bytes)
  in
  (match r with
  | Ok pdus ->
    t.decode_ns <- t.decode_ns + ns;
    t.decode_pdus <- t.decode_pdus + List.length pdus
  | Error _ -> t.decode_errors <- t.decode_errors + 1);
  r

let receive_batch t entity pdus =
  let (), ns =
    timed t Spans.Core "Entity.receive_batch" (fun () ->
        Repro_core.Entity.receive_batch entity pdus)
  in
  t.receive_ns <- t.receive_ns + ns;
  t.receive_pdus <- t.receive_pdus + List.length pdus

let ms_since t0 = (now_s () -. t0) *. 1e3

(* The wire/protocol counters of one traced rep, summed over members. *)
let add_rep t ~messages ~deliveries ~ws ~datagrams entities =
  t.messages <- t.messages + messages;
  t.deliveries <- t.deliveries + deliveries;
  t.datagrams <- t.datagrams + datagrams;
  t.wire_pdus <- t.wire_pdus + Repro_obs.Wirestats.pdus ws;
  t.header_bytes <- t.header_bytes + Repro_obs.Wirestats.header_bytes ws;
  List.iter
    (fun e ->
      Repro_core.Metrics.add ~into:t.counters (Repro_core.Entity.metrics e))
    entities

let gc_begin () = Gc.quick_stat ()

let gc_end t (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  t.minor_words <- t.minor_words +. (s1.minor_words -. s0.minor_words);
  t.major_collections <-
    t.major_collections + (s1.major_collections - s0.major_collections)

let metrics t =
  let c = t.counters in
  let per_msg v = ratio v t.messages in
  let open Repro_core.Metrics in
  [
    ("transport.submit_us_p50", Fbuf.percentile t.submit_us 50., "us");
    ("transport.step_us_p50", Fbuf.percentile t.step_us 50., "us");
    ("transport.step_us_p99", Fbuf.percentile t.step_us 99., "us");
    ("transport.steps_per_delivery", ratio t.steps t.deliveries, "ratio");
    ("transport.datagrams_per_delivery", ratio t.datagrams t.deliveries, "ratio");
    ("transport.pdus_per_datagram", ratio t.wire_pdus t.datagrams, "ratio");
    ("transport.recv_datagrams_per_step", ratio t.recv_datagrams t.steps, "ratio");
    ("transport.drop_frac", ratio t.dropped t.recv_datagrams, "frac");
    ("transport.decode_errors", float_of_int t.decode_errors, "count");
    ("pdu.encode_ns_per_pdu", ratio t.encode_ns t.encode_pdus, "ns");
    ("pdu.decode_ns_per_pdu", ratio t.decode_ns t.decode_pdus, "ns");
    ("pdu.header_bytes_per_pdu", ratio t.header_bytes t.wire_pdus, "B");
    ("core.receive_batch_ns_per_pdu", ratio t.receive_ns t.receive_pdus, "ns");
    ("core.cpi_fastpath_frac", ratio c.cpi_fastpath c.accepted, "frac");
    ("core.deliver_batch_mean", ratio c.delivered c.deliver_batches, "ratio");
    ("core.peak_buffered", float_of_int c.peak_buffered, "count");
    ("core.confirmations_per_message", per_msg c.confirmations_sent, "ratio");
    ("core.ctl_per_message", per_msg c.ctl_sent, "ratio");
    ("core.ret_per_message", per_msg c.ret_sent, "ratio");
    ("core.retransmits_per_message", per_msg c.retransmitted, "ratio");
    ("core.duplicates_per_retransmit", ratio c.duplicates c.retransmitted, "ratio");
    ("core.flow_blocked_frac", per_msg c.flow_blocked, "frac");
    ("core.gaps_detected", float_of_int c.gaps_detected, "count");
    ("core.ret_retries", float_of_int c.ret_retries, "count");
    ("core.accept_ms_p50", Fbuf.percentile t.accept_ms 50., "ms");
    ("core.preack_ms_p50", Fbuf.percentile t.preack_ms 50., "ms");
    ("core.ack_ms_p50", Fbuf.percentile t.ack_ms 50., "ms");
    ("obs.scrape_ms_p50", Fbuf.percentile t.scrape_ms 50., "ms");
    ( "gc.minor_words_per_delivery",
      (if t.deliveries = 0 then 0. else t.minor_words /. float_of_int t.deliveries),
      "words" );
    ("gc.major_collections", float_of_int t.major_collections, "count");
    ( "gc.top_heap_mb",
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.,
      "MB" );
    ("loadgen.late_ms_p99", Fbuf.percentile t.late_ms 99., "ms");
  ]
