(* Observability subsystem: histogram laws, registry/exposition round-trips,
   and the receipt-ladder span discipline — on a quiescent simulated run
   and across every interleaving of the small-scope explorer. *)

module Histogram = Repro_obs.Histogram
module Registry = Repro_obs.Registry
module Exporter = Repro_obs.Exporter
module Trace_ctx = Repro_obs.Trace_ctx
module Probe = Repro_core.Probe
module Stats = Repro_util.Stats
module Cluster = Repro_core.Cluster
module Entity = Repro_core.Entity
module Explorer = Repro_check.Explorer
module Workload = Repro_harness.Workload
module Experiment = Repro_harness.Experiment
module Simtime = Repro_sim.Simtime

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Histogram unit tests.                                               *)

let test_bucket_bounds () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0; 1; 2; 3; 4; 7; 8; 1024 ];
  let s = Histogram.snapshot h in
  check int_t "count" 8 s.Histogram.count;
  check int_t "sum" 1049 s.Histogram.sum;
  (* Bucket 0: v <= 0; bucket i >= 1: [2^(i-1), 2^i - 1]. *)
  check int_t "bucket 0 holds zero" 1 s.Histogram.counts.(0);
  check int_t "bucket 1 holds 1" 1 s.Histogram.counts.(1);
  check int_t "bucket 2 holds 2,3" 2 s.Histogram.counts.(2);
  check int_t "bucket 3 holds 4..7" 2 s.Histogram.counts.(3);
  check int_t "bucket 4 holds 8" 1 s.Histogram.counts.(4);
  check int_t "bucket 11 holds 1024" 1 s.Histogram.counts.(11);
  check (Alcotest.float 0.) "ub 0" 0. (Histogram.upper_bound 0);
  check (Alcotest.float 0.) "ub 3" 7. (Histogram.upper_bound 3);
  check bool_t "last ub open-ended" true
    (Histogram.upper_bound (Histogram.buckets - 1) = infinity)

let test_negative_clamped () =
  let h = Histogram.create () in
  Histogram.observe h (-5);
  let s = Histogram.snapshot h in
  check int_t "negative goes to bucket 0" 1 s.Histogram.counts.(0);
  check (Alcotest.float 0.) "p100 of clamped" 0. (Histogram.percentile s 100.)

let test_empty_percentile () =
  check (Alcotest.float 0.) "empty percentile" 0.
    (Histogram.percentile Histogram.empty 99.)

(* Percentiles agree with the exact nearest-rank percentile to one bucket:
   both sides use rank = ceil(q/100 * count), and the histogram reports the
   upper bound of the bucket holding that sample, so for exact value v:
   v = 0 -> reported 0; v >= 1 -> v <= reported <= 2v - 1. *)
let prop_percentile_vs_stats =
  QCheck.Test.make ~count:300 ~name:"histogram percentile within one bucket"
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_bound 100_000)) (0 -- 100))
    (fun (samples, qi) ->
      let q = float_of_int qi in
      let h = Histogram.create () in
      List.iter (Histogram.observe h) samples;
      let reported = Histogram.percentile (Histogram.snapshot h) q in
      let exact = Stats.percentile (List.map float_of_int samples) q in
      if exact < 1. then reported = 0. || reported >= exact
      else exact <= reported && reported <= (2. *. exact) -. 1.)

let prop_merge_assoc_comm =
  let snap samples =
    let h = Histogram.create () in
    List.iter (Histogram.observe h) samples;
    Histogram.snapshot h
  in
  let eq (a : Histogram.snapshot) (b : Histogram.snapshot) =
    a.Histogram.counts = b.Histogram.counts
    && a.Histogram.count = b.Histogram.count
    && a.Histogram.sum = b.Histogram.sum
  in
  QCheck.Test.make ~count:200 ~name:"snapshot merge associative+commutative"
    QCheck.(
      triple
        (small_list (int_bound 10_000))
        (small_list (int_bound 10_000))
        (small_list (int_bound 10_000)))
    (fun (xs, ys, zs) ->
      let a = snap xs and b = snap ys and c = snap zs in
      let open Histogram in
      eq (merge a b) (merge b a)
      && eq (merge (merge a b) c) (merge a (merge b c))
      && eq (merge a empty) a
      (* merging two snapshots equals one histogram fed both sample sets *)
      && eq (merge a b) (snap (xs @ ys)))

(* ------------------------------------------------------------------ *)
(* Registry and exposition.                                            *)

let test_registry_basics () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"test" ~name:"t_ops_total" [] in
  Registry.inc c;
  Registry.inc ~by:4 c;
  check int_t "counter value" 5 (Registry.counter_value c);
  Alcotest.check_raises "negative inc rejected"
    (Invalid_argument "Registry.inc: negative increment")
    (fun () -> Registry.inc ~by:(-1) c);
  let g = Registry.gauge reg ~name:"t_depth" [] in
  Registry.set g 2.5;
  check (Alcotest.float 0.) "gauge value" 2.5 (Registry.gauge_value g);
  (* Same (name, labels) resolves to the same cell. *)
  let c' = Registry.counter reg ~name:"t_ops_total" [] in
  Registry.inc c';
  check int_t "same cell" 6 (Registry.counter_value c);
  (* Label order does not create a new cell. *)
  let h1 = Registry.histogram reg ~name:"t_lat" [ ("a", "1"); ("b", "2") ] in
  let h2 = Registry.histogram reg ~name:"t_lat" [ ("b", "2"); ("a", "1") ] in
  Registry.observe h1 10;
  check int_t "label order canonical" 1
    (Registry.histo_snapshot h2).Histogram.count;
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: t_ops_total already registered as another kind")
    (fun () -> ignore (Registry.gauge reg ~name:"t_ops_total" []))

let test_prometheus_roundtrip () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"ops" ~name:"x_ops_total" [ ("e", "0") ] in
  Registry.inc ~by:7 c;
  let g = Registry.gauge reg ~help:"depth" ~name:"x_depth" [] in
  Registry.set g 1.5;
  let h =
    Registry.histogram reg ~help:"lat" ~scale:1e-6 ~name:"x_lat_seconds"
      [ ("stage", "ack") ]
  in
  List.iter (Registry.observe h) [ 3; 900; 40_000 ];
  let text = Exporter.to_prometheus reg in
  (match Exporter.lint text with
  | Ok lines -> check bool_t "lint ok with samples" true (lines > 5)
  | Error es -> Alcotest.failf "lint failed: %s" (String.concat "; " es));
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i =
      i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
    in
    scan 0
  in
  check bool_t "counter line" true (has {|x_ops_total{e="0"} 7|});
  check bool_t "gauge line" true (has {|x_depth 1.5|});
  check bool_t "histogram count" true (has {|x_lat_seconds_count{stage="ack"} 3|});
  check bool_t "+Inf bucket" true (has {|le="+Inf"|});
  check bool_t "scaled sum" true (has "x_lat_seconds_sum");
  check bool_t "type comments" true (has "# TYPE x_lat_seconds histogram")

let test_jsonl_export () =
  let reg = Registry.create () in
  Registry.inc (Registry.counter reg ~name:"j_ops_total" [ ("e", "1") ]);
  let h = Registry.histogram reg ~name:"j_lat" [] in
  Registry.observe h 5;
  let out = Exporter.to_jsonl reg in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  check int_t "one object per cell" 2 (List.length lines);
  List.iter
    (fun l ->
      check bool_t "object shape" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_lint_catches_garbage () =
  let bad_nan = "# TYPE x gauge\nx NaN\n" in
  (match Exporter.lint bad_nan with
  | Ok _ -> Alcotest.fail "NaN accepted"
  | Error _ -> ());
  let bad_untyped = "y_total 3\n" in
  (match Exporter.lint bad_untyped with
  | Ok _ -> Alcotest.fail "untyped family accepted"
  | Error _ -> ());
  let bad_negative_counter = "# TYPE z counter\nz -1\n" in
  (match Exporter.lint bad_negative_counter with
  | Ok _ -> Alcotest.fail "negative counter accepted"
  | Error _ -> ());
  let bad_nonmonotone =
    "# TYPE w histogram\n\
     w_bucket{le=\"1\"} 5\n\
     w_bucket{le=\"2\"} 3\n\
     w_bucket{le=\"+Inf\"} 5\n\
     w_sum 9\n\
     w_count 5\n"
  in
  match Exporter.lint bad_nonmonotone with
  | Ok _ -> Alcotest.fail "non-cumulative buckets accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Receipt-ladder spans on a full simulated run.                       *)

let run_instrumented ~n ~per_entity ~loss ~seed =
  let registry = Registry.create () in
  let config =
    { (Cluster.default_config ~n) with Cluster.loss_prob = loss; seed }
  in
  let workload =
    Workload.continuous ~n ~per_entity ~interval:(Simtime.of_ms 4) ()
  in
  let cluster, o = Experiment.run ~registry ~config ~workload () in
  (registry, cluster, o)

let test_spans_close_once () =
  List.iter
    (fun (loss, seed) ->
      let _, cluster, o = run_instrumented ~n:3 ~per_entity:8 ~loss ~seed in
      let r = Option.get (Cluster.recorder cluster) in
      let data_pdus = o.Experiment.submitted in
      (* Every data PDU is accepted and acknowledged at every entity exactly
         once: spans open n * messages times and all of them close. *)
      check int_t "spans opened" (3 * data_pdus) (Trace_ctx.spans_opened r);
      check int_t "spans closed = opened" (Trace_ctx.spans_opened r)
        (Trace_ctx.spans_closed r);
      check int_t "no orphan spans" 0 (Trace_ctx.open_spans r);
      check int_t "no close errors" 0 (Trace_ctx.close_errors r);
      check int_t "no order errors" 0 (Trace_ctx.order_errors r);
      let ladder = Option.get o.Experiment.ladder in
      check int_t "deliver samples = deliveries" o.Experiment.delivered_total
        ladder.Trace_ctx.deliver.Histogram.count;
      check int_t "ack spans match deliveries for data"
        o.Experiment.delivered_total (Trace_ctx.spans_closed r);
      check int_t "queue stamp per submission" data_pdus
        ladder.Trace_ctx.queue.Histogram.count)
    [ (0.0, 1); (0.15, 7) ]

let test_ladder_ordering () =
  (* Per-PDU monotonicity (accept <= preack <= ack) is checked by the
     order_errors counter; here: the aggregate distributions are ordered at
     matched ranks, since each PDU climbs the ladder in order. *)
  let _, cluster, o = run_instrumented ~n:4 ~per_entity:10 ~loss:0.0 ~seed:3 in
  let ladder = Option.get o.Experiment.ladder in
  let p q s = Histogram.percentile s q in
  List.iter
    (fun q ->
      check bool_t "accept <= ack at rank" true
        (p q ladder.Trace_ctx.accept <= p q ladder.Trace_ctx.ack);
      check bool_t "preack <= ack at rank" true
        (p q ladder.Trace_ctx.preack <= p q ladder.Trace_ctx.ack))
    [ 50.; 90.; 99. ];
  let r = Option.get (Cluster.recorder cluster) in
  check int_t "no order errors" 0 (Trace_ctx.order_errors r)

let test_registry_exposition_after_run () =
  let registry, _, _ = run_instrumented ~n:3 ~per_entity:6 ~loss:0.1 ~seed:5 in
  let text = Exporter.to_prometheus registry in
  match Exporter.lint text with
  | Ok lines -> check bool_t "full-run exposition lints" true (lines > 50)
  | Error es -> Alcotest.failf "exposition lint: %s" (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Receipt-ladder spans across every explored interleaving (n = 2).    *)

let test_spans_under_exploration () =
  (* A fresh recorder per replayed system (the explorer rebuilds entities
     once per path); stamp errors accumulate across all paths. The frozen
     clock makes every latency 0, so any nonzero error counter is a true
     span-discipline violation on some interleaving. *)
  let errors = ref 0 and paths = ref 0 in
  let current = ref None in
  let flush () =
    match !current with
    | Some r ->
      errors := !errors + Trace_ctx.close_errors r + Trace_ctx.order_errors r
    | None -> ()
  in
  let on_system entities =
    flush ();
    incr paths;
    let r = Trace_ctx.create ~members:(Array.length entities) () in
    current := Some r;
    Array.iteri
      (fun id e ->
        Entity.set_probe e
          (Probe.of_recorder r ~entity:id ~now:(fun () -> 0) ()))
      entities
  in
  let base = Explorer.default_config ~n:2 in
  let o = Explorer.run { base with Explorer.on_system } in
  flush ();
  check bool_t "exploration exhaustive" false o.Explorer.truncated;
  check bool_t "no invariant violation" true (o.Explorer.violation = None);
  check bool_t "systems replayed" true (!paths > 0);
  check int_t "no span errors on any interleaving" 0 !errors

(* ------------------------------------------------------------------ *)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "obs"
    [
      ( "histogram properties",
        qsuite [ prop_percentile_vs_stats; prop_merge_assoc_comm ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
          Alcotest.test_case "negative clamped" `Quick test_negative_clamped;
          Alcotest.test_case "empty percentile" `Quick test_empty_percentile;
        ] );
      ( "registry",
        [
          Alcotest.test_case "basics" `Quick test_registry_basics;
          Alcotest.test_case "prometheus roundtrip" `Quick
            test_prometheus_roundtrip;
          Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
          Alcotest.test_case "lint catches garbage" `Quick
            test_lint_catches_garbage;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "spans close once (quiescent run)" `Quick
            test_spans_close_once;
          Alcotest.test_case "ladder ordering" `Quick test_ladder_ordering;
          Alcotest.test_case "full-run exposition lints" `Quick
            test_registry_exposition_after_run;
          Alcotest.test_case "spans under exploration" `Slow
            test_spans_under_exploration;
        ] );
    ]
