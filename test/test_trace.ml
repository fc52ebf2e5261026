(* Causal-tracing observability suite (DESIGN.md §15).

   Four layers of evidence that tracing observes without perturbing:

   - codec level: traced (0xB3) frames round-trip PDUs and ids, cost
     exactly 8 bytes per DATA item over the plain v2 batch, decode as
     plain batches through [decode_any] (so untraced peers interoperate),
     and reject damage as cleanly as v2 frames do;
   - protocol level: a 1000-case property — the same seeded scenario run
     with tracing on and off yields identical delivery orders and entity
     state digests (tracing never feeds back into the protocol);
   - attribution level: per-span segments cover the send→deliver interval
     exactly (the BENCH delay_attribution acceptance), parked PDUs are
     attributed to RET recovery, and crashes abandon — never stitch —
     spans across incarnations;
   - export level: the Perfetto trace-event JSON is pinned by a committed
     golden fixture and structurally validated (balanced s/f flow pairs,
     named per-entity tracks, nonnegative duration slices).

   QCHECK_SEED=<n> dune runtest replays a reported failure. *)

module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Cluster = Repro_core.Cluster
module Simtime = Repro_sim.Simtime
module Udp = Repro_transport.Udp_cluster
module Trace_ctx = Repro_obs.Trace_ctx
module Critpath = Repro_obs.Critpath
module Registry = Repro_obs.Registry
module Exporter = Repro_obs.Exporter
module Plan = Repro_fault.Plan
module Scenario = Repro_scenario.Scenario
module Runner = Repro_scenario.Runner
module Jsonx = Repro_analysis.Jsonx

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let int64_t = Alcotest.int64
let keys_t = Alcotest.list (Alcotest.pair int_t int_t)

(* --- Trace ids: deterministic, seed-derived, stable across releases --- *)

let test_id_deterministic () =
  let salt = Trace_ctx.salt_of_seed ~seed:42 in
  check int64_t "salt is a pure function of the seed" salt
    (Trace_ctx.salt_of_seed ~seed:42);
  check bool_t "different seeds, different salts" true
    (salt <> Trace_ctx.salt_of_seed ~seed:43);
  check int64_t "id is a pure function of (salt, src, seq)"
    (Trace_ctx.id ~salt ~src:1 ~seq:7)
    (Trace_ctx.id ~salt ~src:1 ~seq:7);
  check bool_t "ids separate PDUs" true
    (Trace_ctx.id ~salt ~src:1 ~seq:7 <> Trace_ctx.id ~salt ~src:1 ~seq:8);
  check bool_t "ids separate sources" true
    (Trace_ctx.id ~salt ~src:1 ~seq:7 <> Trace_ctx.id ~salt ~src:2 ~seq:7)

(* --- Traced codec: a strict 8-bytes-per-item superset of v2 --- *)

let gen_data_in ~n =
  let open QCheck.Gen in
  array_size (return n) (int_range 1 1000) >>= fun ack ->
  int_range 0 (n - 1) >>= fun src ->
  int_range 1 100000 >>= fun seq ->
  int_range 0 100 >>= fun buf ->
  string_size (int_range 0 64) >>= fun payload ->
  return
    (match Pdu.data ~cid:0 ~src ~seq ~ack ~buf ~payload with
    | Pdu.Data d -> d
    | _ -> assert false)

let gen_batch =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  int_range 1 16 >>= fun count ->
  list_size (return count) (gen_data_in ~n)

let print_batch items =
  String.concat "; " (List.map (fun d -> Pdu.to_string (Pdu.Data d)) items)

let arb_batch = QCheck.make ~print:print_batch gen_batch

let ids_for items =
  let salt = Trace_ctx.salt_of_seed ~seed:5 in
  Array.of_list
    (List.map
       (fun (d : Pdu.data) -> Trace_ctx.id ~salt ~src:d.src ~seq:d.seq)
       items)

let prop_traced_roundtrip =
  QCheck.Test.make ~name:"traced batch roundtrips PDUs and ids" ~count:1000
    arb_batch (fun items ->
      let ids = ids_for items in
      match Codec.decode_traced (Codec.encode_data_batch_traced ~ids items) with
      | Ok (pdus, ids') ->
        List.length pdus = List.length items
        && List.for_all2 (fun d p -> Pdu.equal (Pdu.Data d) p) items pdus
        && ids' = ids
      | Error _ -> false)

let prop_traced_decodes_untraced =
  QCheck.Test.make ~name:"decode_any reads traced frames as plain batches"
    ~count:1000 arb_batch (fun items ->
      let b = Codec.encode_data_batch_traced ~ids:(ids_for items) items in
      match Codec.decode_any b with
      | Ok pdus ->
        List.for_all2 (fun d p -> Pdu.equal (Pdu.Data d) p) items pdus
      | Error _ -> false)

let prop_traced_size =
  QCheck.Test.make ~name:"tracing costs exactly 8 bytes per DATA item"
    ~count:1000 arb_batch (fun items ->
      let plain = Codec.encode_data_batch_v2 items in
      let traced = Codec.encode_data_batch_traced ~ids:(ids_for items) items in
      Bytes.length traced = Bytes.length plain + (8 * List.length items))

let prop_traced_bitflip =
  QCheck.Test.make ~name:"every single-bit traced flip is a clean Error"
    ~count:1000
    QCheck.(pair arb_batch (int_bound 100_000))
    (fun (items, bit) ->
      let b = Codec.encode_data_batch_traced ~ids:(ids_for items) items in
      let bit = bit mod (8 * Bytes.length b) in
      let byte = bit / 8 in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl (bit mod 8)));
      match Codec.decode_traced b with
      | Ok _ -> false
      | Error _ -> true
      | exception _ -> false)

let prop_traced_truncation =
  QCheck.Test.make ~name:"every strict traced prefix is a clean Error"
    ~count:300 arb_batch (fun items ->
      let b = Codec.encode_data_batch_traced ~ids:(ids_for items) items in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match Codec.decode_traced (Bytes.sub b 0 len) with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let test_traced_edges () =
  let d =
    match Pdu.data ~cid:0 ~src:0 ~seq:1 ~ack:[| 1; 1 |] ~buf:4 ~payload:"x" with
    | Pdu.Data d -> d
    | _ -> assert false
  in
  (* encode_traced sizes are exact and RET/CTL stay plain v2. *)
  let pdu = Pdu.Data d in
  let id = Trace_ctx.id ~salt:1L ~src:0 ~seq:1 in
  check int_t "encoded_size_traced (data)"
    (Bytes.length (Codec.encode_traced ~ids:[| id |] pdu))
    (Codec.encoded_size_traced pdu);
  let ctl = Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1; 1 |] ~buf:4 in
  check bool_t "CTL never frames as 0xB3" true
    (Bytes.equal (Codec.encode_traced ~ids:[||] ctl) (Codec.encode_v2 ctl));
  check int_t "encoded_size_traced (ctl) = v2 size"
    (Codec.encoded_size_v2 ctl)
    (Codec.encoded_size_traced ctl);
  (* Mismatched id count is a caller bug, not a frame. *)
  check bool_t "id/batch length mismatch rejected" true
    (match Codec.encode_data_batch_traced ~ids:[||] [ d ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Untraced frames surface no ids. *)
  (match Codec.decode_traced (Codec.encode_v2 pdu) with
  | Ok (_, ids) -> check int_t "v2 frame: no ids" 0 (Array.length ids)
  | Error _ -> Alcotest.fail "v2 frame failed decode_traced");
  match Codec.decode_traced (Codec.encode pdu) with
  | Ok (_, ids) -> check int_t "v1 frame: no ids" 0 (Array.length ids)
  | Error _ -> Alcotest.fail "v1 frame failed decode_traced"

(* --- Tracing on vs off: observationally equivalent (the PR-7 harness
   pattern, with the tracing switch where the wire switch was) --- *)

type scenario = {
  sc_n : int;
  sc_seed : int;
  sc_loss : float;
  sc_submits : (int * int) list; (* (at_ms, src) *)
}

let print_scenario sc =
  Printf.sprintf "{n=%d; seed=%d; loss=%.2f; submits=[%s]}" sc.sc_n sc.sc_seed
    sc.sc_loss
    (String.concat "; "
       (List.map
          (fun (at, src) -> Printf.sprintf "%d@%dms" src at)
          sc.sc_submits))

let gen_scenario =
  let open QCheck.Gen in
  int_range 2 4 >>= fun n ->
  int_range 0 99999 >>= fun seed ->
  oneofl [ 0.0; 0.05; 0.15; 0.3 ] >>= fun loss ->
  int_range 1 6 >>= fun k ->
  list_size (return k) (pair (int_range 0 40) (int_range 0 (n - 1)))
  >>= fun submits ->
  return { sc_n = n; sc_seed = seed; sc_loss = loss; sc_submits = submits }

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

let run_scenario ~tracing sc =
  let base = Cluster.default_config ~n:sc.sc_n in
  let cfg =
    {
      base with
      Cluster.protocol = { base.Cluster.protocol with Config.tracing };
      loss_prob = sc.sc_loss;
      seed = sc.sc_seed;
    }
  in
  let c = Cluster.create cfg in
  List.iteri
    (fun i (at, src) ->
      Cluster.submit_at c ~at:(Simtime.of_ms at) ~src (Printf.sprintf "p%d" i))
    sc.sc_submits;
  Cluster.run c ~max_events:400_000;
  ( List.init sc.sc_n (fun i -> Cluster.delivery_keys c ~entity:i),
    List.init sc.sc_n (fun i -> Entity.signature (Cluster.entity c i)) )

let prop_tracing_equivalent =
  QCheck.Test.make ~name:"traced and untraced runs are observationally equal"
    ~count:1000 arb_scenario (fun sc ->
      run_scenario ~tracing:false sc = run_scenario ~tracing:true sc)

(* The registry histograms are the recorder's with or without kept spans:
   switching tracing on may add spans, never move a histogram sample. *)
let test_histograms_independent_of_spans () =
  let ladder_snapshots ~tracing ~seed ~loss =
    let reg = Registry.create () in
    let base = Cluster.default_config ~n:4 in
    let c =
      Cluster.create
        {
          base with
          Cluster.protocol = { base.Cluster.protocol with Config.tracing };
          loss_prob = loss;
          seed;
          instrument = Some reg;
        }
    in
    for k = 0 to 23 do
      Cluster.submit_at c ~at:(Simtime.of_ms (2 * k)) ~src:(k mod 4)
        (Printf.sprintf "h%d" k)
    done;
    Cluster.run c ~max_events:400_000;
    List.filter_map
      (fun (sample : Registry.sample) ->
        match (sample.Registry.family, sample.Registry.value) with
        | ( ( "co_ladder_stage_seconds" | "co_submit_queue_seconds"
            | "co_deliver_batch_size" ),
            Registry.Sample_histogram snap ) ->
          Some (sample.Registry.family, sample.Registry.labels, snap)
        | _ -> None)
      (Registry.samples reg)
  in
  List.iter
    (fun (seed, loss) ->
      let plain = ladder_snapshots ~tracing:false ~seed ~loss in
      check int_t "six histogram series" 6 (List.length plain);
      check bool_t "samples recorded" true
        (List.for_all
           (fun (_, _, snap) -> snap.Repro_obs.Histogram.count > 0)
           plain);
      check bool_t
        (Printf.sprintf "seed %d loss %.2f: identical snapshots" seed loss)
        true
        (plain = ladder_snapshots ~tracing:true ~seed ~loss))
    [ (7, 0.0); (19, 0.15) ]

(* A first-send stamp is read by every member's ladder up to its
   acknowledgment and by nothing after: once the last member acknowledges
   the PDU the recorder drops it. What a quiescent run still holds are the
   PDUs some member has accepted but not acknowledged — the trailing empty
   confirmations, which only later traffic would acknowledge — never its
   history. *)
let test_send_stamps_retire () =
  let base = Cluster.default_config ~n:4 in
  let c =
    Cluster.create
      {
        base with
        Cluster.protocol = { base.Cluster.protocol with Config.tracing = true };
        loss_prob = 0.1;
        seed = 5;
        instrument = Some (Registry.create ());
      }
  in
  for k = 0 to 199 do
    Cluster.submit_at c ~at:(Simtime.of_ms k) ~src:(k mod 4)
      (Printf.sprintf "s%d" k)
  done;
  Cluster.run c;
  let r = Option.get (Cluster.recorder c) in
  for e = 0 to 3 do
    check int_t "all delivered" 200
      (List.length (Cluster.deliveries c ~entity:e))
  done;
  check int_t "no open spans" 0 (Trace_ctx.open_spans r);
  let unacked = Hashtbl.create 16 in
  for e = 0 to 3 do
    let ent = Cluster.entity c e in
    List.iter
      (fun (d : Pdu.data) ->
        if d.payload <> "" then Alcotest.failf "data (%d, %d) unacked" d.src d.seq;
        Hashtbl.replace unacked (Pdu.key d) ())
      (Entity.prl_list ent
      @ List.concat_map (fun src -> Entity.rrl_list ent ~src) [ 0; 1; 2; 3 ])
  done;
  check int_t "stamps = PDUs not yet acknowledged everywhere"
    (Hashtbl.length unacked) (Trace_ctx.send_stamps r)

(* --- Attribution: segments cover delivery latency exactly --- *)

let mk_span ?(entity = 1) ?(incarnation = 0) ?(src = 0) ?(seq = 1)
    ?(parked = false) ~t_send ~t_recv ~t_accept ~t_preack ~t_deliver () =
  {
    Trace_ctx.entity;
    incarnation;
    src;
    seq;
    trace_id = Trace_ctx.id ~salt:9L ~src ~seq;
    t_send;
    t_recv;
    parked;
    t_accept;
    t_preack;
    t_deliver;
  }

let test_segments_cover () =
  let span =
    mk_span ~t_send:10 ~t_recv:25 ~t_accept:40 ~t_preack:41 ~t_deliver:100 ()
  in
  let segs = Critpath.segments span in
  check int_t "four segments" 4 (List.length segs);
  check int_t "segments sum to end-to-end" 90
    (List.fold_left (fun acc (_, d) -> acc + d) 0 segs);
  check bool_t "in-sequence accept wait is batch_queue" true
    (List.mem_assoc Critpath.Batch_queue segs);
  let parked =
    mk_span ~parked:true ~t_send:10 ~t_recv:25 ~t_accept:40 ~t_preack:41
      ~t_deliver:100 ()
  in
  check bool_t "parked accept wait is ret_recovery" true
    (List.mem_assoc Critpath.Ret_recovery (Critpath.segments parked));
  check bool_t "parked span has no batch_queue segment" false
    (List.mem_assoc Critpath.Batch_queue (Critpath.segments parked))

let prop_segments_exact =
  let gen =
    let open QCheck.Gen in
    int_range 0 1000 >>= fun t_send ->
    int_range 0 500 >>= fun d1 ->
    int_range 0 500 >>= fun d2 ->
    int_range 0 500 >>= fun d3 ->
    int_range 0 500 >>= fun d4 ->
    bool >|= fun parked ->
    mk_span ~parked ~t_send ~t_recv:(t_send + d1) ~t_accept:(t_send + d1 + d2)
      ~t_preack:(t_send + d1 + d2 + d3)
      ~t_deliver:(t_send + d1 + d2 + d3 + d4)
      ()
  in
  QCheck.Test.make ~name:"segments always sum to t_deliver - t_send"
    ~count:1000
    (QCheck.make gen)
    (fun span ->
      List.fold_left (fun acc (_, d) -> acc + d) 0 (Critpath.segments span)
      = span.Trace_ctx.t_deliver - span.Trace_ctx.t_send)

let test_summary_and_registry () =
  let spans =
    [
      mk_span ~t_send:0 ~t_recv:10 ~t_accept:10 ~t_preack:30 ~t_deliver:50 ();
      mk_span ~seq:2 ~parked:true ~t_send:5 ~t_recv:15 ~t_accept:45 ~t_preack:45
        ~t_deliver:60 ();
    ]
  in
  let s = Critpath.summarize spans in
  check int_t "spans" 2 s.Critpath.spans;
  check int_t "end-to-end" (50 + 55) s.Critpath.end_to_end_us;
  check int_t "attributed = end-to-end (the 5%% acceptance, exactly)"
    s.Critpath.end_to_end_us s.Critpath.attributed_us;
  check int_t "all causes present" 5 (List.length s.Critpath.by_cause);
  (* Registry aggregation exposes the closed cause set and lints clean. *)
  let reg = Registry.create () in
  Critpath.to_registry reg spans;
  let text = Exporter.to_prometheus reg in
  check bool_t "co_delay_attrib_us exported" true
    (let is_sub needle hay =
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     is_sub "co_delay_attrib_us" text);
  (match Exporter.lint text with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "lint rejected: %s" (String.concat "; " es));
  (* A cause outside the closed set is a lint error (satellite: colint
     metrics guards the enum). *)
  let bad = Registry.create () in
  Registry.inc
    (Registry.counter bad ~help:"h" ~name:"co_delay_attrib_us_count"
       [ ("cause", "gc_pause") ]);
  match Exporter.lint (Exporter.to_prometheus bad) with
  | Ok _ -> Alcotest.fail "lint accepted an unknown cause label"
  | Error es ->
    check bool_t "error names the bad cause" true
      (List.exists
         (fun e ->
           let is_sub needle hay =
             let n = String.length needle and h = String.length hay in
             let rec go i =
               i + n <= h && (String.sub hay i n = needle || go (i + 1))
             in
             go 0
           in
           is_sub "gc_pause" e)
         es)

(* --- Crash mid-ladder: spans abandon, never stitch --- *)

let test_crash_abandons_spans () =
  let reg = Registry.create () in
  let plan =
    match Plan.find "crash_restart" with
    | Some p -> p
    | None -> Alcotest.fail "no crash_restart plan"
  in
  let r =
    Runner.run ~tracing:true ~registry:reg
      ~compiled:(Scenario.of_plan ~n:4 ~per_entity:6 plan)
      ~seed:1 Runner.Co
  in
  check bool_t "chaos run survives with tracing on" true (Runner.ok r);
  let co =
    match r.Runner.co with
    | Some co -> co
    | None -> Alcotest.fail "CO run must carry its verdict details"
  in
  let s =
    match co.Runner.delay_attribution with
    | Some s -> s
    | None -> Alcotest.fail "traced run produced no attribution"
  in
  check bool_t "crash abandoned trace spans" true (s.Critpath.abandoned > 0);
  check int_t "summary and chaos outcome agree on abandoned spans"
    s.Critpath.abandoned co.Runner.spans_abandoned;
  check int_t "attribution is exact despite the crash"
    s.Critpath.end_to_end_us s.Critpath.attributed_us;
  let exported =
    match
      List.find_opt
        (fun (sample : Registry.sample) ->
          sample.Registry.family = "co_spans_abandoned_total")
        (Registry.samples reg)
    with
    | Some _ -> true
    | None -> false
  in
  check bool_t "co_spans_abandoned_total exported" true exported

let test_cluster_crash_no_stitch () =
  (* Drive the crash by hand so it provably lands mid-ladder: stop the
     engine while PDUs are accepted-but-undelivered at entity 2, crash
     and restart it, then run out. *)
  let reg = Registry.create () in
  let base = Cluster.default_config ~n:3 in
  let cfg =
    {
      base with
      Cluster.protocol = { base.Cluster.protocol with Config.tracing = true };
      seed = 11;
      instrument = Some reg;
    }
  in
  let c = Cluster.create cfg in
  for k = 0 to 4 do
    Cluster.submit_at c ~at:(Simtime.of_ms (1 + k)) ~src:(k mod 3)
      (Printf.sprintf "m%d" k)
  done;
  (* Past the sends, before the ack quorum completes: mid-ladder. *)
  Cluster.run c ~until:(Simtime.of_ms 7);
  Cluster.crash c ~id:2;
  Cluster.restart c ~id:2;
  Cluster.run c;
  let tr = match Cluster.recorder c with Some t -> t | None -> assert false in
  check bool_t "mid-ladder spans were open at the crash" true
    (Trace_ctx.abandoned tr > 0);
  (* No stitching: post-restart stamps may not close pre-crash spans, so
     the recorder reports zero close/order anomalies and no orphans. *)
  check int_t "no span closed across incarnations" 0 (Trace_ctx.close_errors tr);
  check int_t "no out-of-order stage stamps" 0 (Trace_ctx.order_errors tr);
  check int_t "no orphan spans after the restart" 0 (Trace_ctx.open_spans tr);
  (* Post-restart deliveries at entity 2 carry the new incarnation; stamps
     inside every completed span are monotone (a stitched span would fold
     a pre-crash receive under a post-restart accept, which abandon
     prevents by construction). *)
  List.iter
    (fun (sp : Trace_ctx.span) ->
      check bool_t "span stamps monotone" true
        (sp.t_send <= sp.t_recv && sp.t_recv <= sp.t_accept
       && sp.t_accept <= sp.t_preack
        && sp.t_preack <= sp.t_deliver);
      if sp.entity = 2 && sp.incarnation = 0 then
        check bool_t "incarnation-0 span completed before the crash" true
          (sp.t_deliver <= 7000))
    (Trace_ctx.spans tr)

(* --- Recorder unit semantics --- *)

let test_recorder_abandon_unit () =
  let reg = Registry.create () in
  let r = Trace_ctx.create ~registry:reg ~salt:3L ~members:2 () in
  let data = true in
  Trace_ctx.on_send r ~src:0 ~seq:1 ~data ~now:0;
  Trace_ctx.on_send r ~src:0 ~seq:2 ~data ~now:1;
  Trace_ctx.on_receive r ~entity:1 ~src:0 ~seq:1 ~now:5;
  Trace_ctx.on_accept r ~entity:1 ~src:0 ~seq:1 ~data ~now:6;
  Trace_ctx.on_receive r ~entity:1 ~src:0 ~seq:2 ~now:7;
  check int_t "one open span" 1 (Trace_ctx.open_spans r);
  Trace_ctx.abandon_entity r ~entity:1 ~incarnation:0;
  check int_t "abandon closes the span" 0 (Trace_ctx.open_spans r);
  check int_t "abandon counted (accepted spans only)" 1 (Trace_ctx.abandoned r);
  (* The restarted incarnation finishes the abandoned ladder from its
     checkpoint: silently, without resurrecting the span. *)
  Trace_ctx.on_preack r ~entity:1 ~src:0 ~seq:1 ~data ~now:40;
  Trace_ctx.on_deliver r ~entity:1 ~incarnation:2 ~src:0 ~seq:1 ~now:50;
  Trace_ctx.on_ack r ~entity:1 ~src:0 ~seq:1 ~data ~now:50;
  check int_t "post-crash deliver is incomplete, not a span" 0
    (List.length (Trace_ctx.spans r));
  check int_t "counted incomplete" 1 (Trace_ctx.incomplete r);
  check int_t "no span error for the resumed ladder" 0
    (Trace_ctx.close_errors r + Trace_ctx.order_errors r);
  check int_t "nothing closed by the resumed ladder" 0
    (Trace_ctx.spans_closed r);
  (* The PDU received but not accepted before the crash climbs a fresh
     full ladder in the next incarnation and completes normally. *)
  Trace_ctx.on_receive r ~entity:1 ~src:0 ~seq:2 ~now:60;
  Trace_ctx.on_accept r ~entity:1 ~src:0 ~seq:2 ~data ~now:61;
  Trace_ctx.on_preack r ~entity:1 ~src:0 ~seq:2 ~data ~now:62;
  Trace_ctx.on_deliver r ~entity:1 ~incarnation:2 ~src:0 ~seq:2 ~now:63;
  Trace_ctx.on_ack r ~entity:1 ~src:0 ~seq:2 ~data ~now:63;
  check int_t "fresh span closed" 1 (Trace_ctx.spans_closed r);
  check int_t "no orphans" 0 (Trace_ctx.open_spans r);
  let abandoned_total =
    List.fold_left
      (fun acc (s : Registry.sample) ->
        match (s.Registry.family, s.Registry.value) with
        | "co_spans_abandoned_total", Registry.Sample_counter c ->
          check bool_t "tagged with the dying incarnation" true
            (List.assoc "incarnation" s.Registry.labels = "0");
          acc + c
        | _ -> acc)
      0 (Registry.samples reg)
  in
  check int_t "co_spans_abandoned_total" 1 abandoned_total;
  match Trace_ctx.spans r with
  | [ sp ] ->
    check int_t "new span, new incarnation" 2 sp.Trace_ctx.incarnation;
    check int_t "receive stamp is post-restart" 60 sp.Trace_ctx.t_recv
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* --- Perfetto export: golden fixture + structural validation --- *)

let perfetto_scenario () =
  let base = Cluster.default_config ~n:3 in
  let cfg =
    {
      base with
      Cluster.protocol = { base.Cluster.protocol with Config.tracing = true };
      seed = 42;
      loss_prob = 0.1;
    }
  in
  let c = Cluster.create cfg in
  List.iteri
    (fun i (at, src) ->
      Cluster.submit_at c ~at:(Simtime.of_ms at) ~src (Printf.sprintf "p%d" i))
    [ (1, 0); (2, 1); (3, 2); (5, 0); (8, 1) ];
  Cluster.run c ~max_events:400_000;
  match Cluster.recorder c with
  | Some tr -> Trace_ctx.spans tr
  | None -> Alcotest.fail "tracing-enabled cluster has no recorder"

let fixture_path name =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        (Filename.concat "fixtures" name);
      Filename.concat "test/fixtures" name;
      Filename.concat "fixtures" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let test_perfetto_golden () =
  let actual = Critpath.to_perfetto (perfetto_scenario ()) in
  let stored = read_file (fixture_path "perfetto.golden.json") in
  if String.trim stored <> String.trim actual then
    Alcotest.failf
      "perfetto.golden.json is out of date with the exporter. If the change \
       is intentional, regenerate the fixture with:@.dune exec test/gen \
       (or copy the JSON from cosim run --seed 42 --trace-out).@.First 400 \
       bytes of the new output:@.%s"
      (String.sub actual 0 (min 400 (String.length actual)))

let test_perfetto_schema () =
  let spans = perfetto_scenario () in
  let json = Critpath.to_perfetto spans in
  let root =
    match Jsonx.of_string json with
    | Ok j -> j
    | Error e -> Alcotest.failf "Perfetto JSON does not parse: %s" e
  in
  let events =
    match Jsonx.member "traceEvents" root with
    | Some ev -> Jsonx.to_list ev
    | None -> Alcotest.fail "no traceEvents array"
  in
  check bool_t "events present" true (events <> []);
  let ph e =
    match Option.bind (Jsonx.member "ph" e) Jsonx.string_value with
    | Some s -> s
    | None -> Alcotest.fail "event without ph"
  in
  let count p = List.length (List.filter p events) in
  let entities =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun (sp : Trace_ctx.span) -> [ sp.Trace_ctx.entity; sp.Trace_ctx.src ])
         spans)
  in
  (* One named track (process metadata) per entity that sent or
     delivered. *)
  check int_t "one process_name record per entity" (List.length entities)
    (count (fun e ->
         ph e = "M"
         && Option.bind (Jsonx.member "name" e) Jsonx.string_value
            = Some "process_name"));
  (* Every complete event is well-formed. *)
  List.iter
    (fun e ->
      if ph e = "X" then begin
        check bool_t "X has a name" true
          (Option.bind (Jsonx.member "name" e) Jsonx.string_value <> None);
        match Option.bind (Jsonx.member "dur" e) Jsonx.int_value with
        | Some d -> check bool_t "X dur >= 0" true (d >= 0)
        | None -> Alcotest.fail "X event without dur"
      end)
    events;
  (* Flow arrows pair up: every start has exactly one finish, keyed by id. *)
  let flow_ids p =
    List.sort compare
      (List.filter_map
         (fun e ->
           if ph e = p then
             Option.bind (Jsonx.member "id" e) Jsonx.string_value
           else None)
         events)
  in
  let starts = flow_ids "s" and finishes = flow_ids "f" in
  check int_t "one flow start per span" (List.length spans)
    (List.length starts);
  check bool_t "flow starts and finishes pair up" true (starts = finishes);
  (* One delivery slice per span. *)
  check int_t "one delivery span slice per recorded span" (List.length spans)
    (count (fun e ->
         ph e = "X"
         && (match
               Option.bind (Jsonx.member "name" e) Jsonx.string_value
             with
            | Some name ->
              String.length name >= 8 && String.sub name 0 8 = "deliver "
            | None -> false)))

(* --- Mixed traced/untraced UDP interop --- *)

let test_udp_traced_interop () =
  (* Half the nodes frame 0xB3, half plain 0xB2; one node still speaks v1.
     Everyone must converge with zero decode errors. *)
  let wires = [| Config.V2; Config.V2; Config.V1; Config.V2 |] in
  let traced = [| true; false; false; true |] in
  let t = Udp.create ~wires ~traced ~n:4 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  check bool_t "recorder present when any node traces" true
    (Udp.recorder t <> None);
  for i = 0 to 3 do
    Udp.submit t ~src:i (Printf.sprintf "m%d" i)
  done;
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:10.);
  let keys e =
    List.sort compare
      (List.map (fun (d : Pdu.data) -> (d.Pdu.src, d.Pdu.seq)) (Udp.deliveries t ~entity:e))
  in
  let reference = keys 0 in
  check int_t "all four delivered at 0" 4 (List.length reference);
  for e = 1 to 3 do
    check keys_t (Printf.sprintf "entity %d converged" e) reference (keys e)
  done;
  check int_t "no decode errors across traced/untraced/v1" 0
    (Udp.decode_errors t)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "trace"
    [
      ( "trace-id",
        [ Alcotest.test_case "deterministic ids" `Quick test_id_deterministic ]
      );
      ( "traced-codec",
        [ Alcotest.test_case "edges" `Quick test_traced_edges ]
        @ qsuite
            [
              prop_traced_roundtrip;
              prop_traced_decodes_untraced;
              prop_traced_size;
              prop_traced_bitflip;
              prop_traced_truncation;
            ] );
      ( "equivalence",
        Alcotest.test_case "histograms independent of span keeping" `Quick
          test_histograms_independent_of_spans
        :: Alcotest.test_case "first-send stamps retire" `Quick
             test_send_stamps_retire
        :: qsuite [ prop_tracing_equivalent ] );
      ( "attribution",
        [
          Alcotest.test_case "segment classes" `Quick test_segments_cover;
          Alcotest.test_case "summary + registry + lint" `Quick
            test_summary_and_registry;
        ]
        @ qsuite [ prop_segments_exact ] );
      ( "crash",
        [
          Alcotest.test_case "chaos crash abandons spans" `Quick
            test_crash_abandons_spans;
          Alcotest.test_case "hand-driven crash never stitches" `Quick
            test_cluster_crash_no_stitch;
          Alcotest.test_case "recorder abandon semantics" `Quick
            test_recorder_abandon_unit;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "golden fixture" `Quick test_perfetto_golden;
          Alcotest.test_case "trace-event schema" `Quick test_perfetto_schema;
        ] );
      ( "interop",
        [
          Alcotest.test_case "mixed traced/untraced UDP cluster" `Quick
            test_udp_traced_interop;
        ] );
    ]
