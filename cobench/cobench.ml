(* cobench: the repo benchmark.

   cobench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   A run times [setup_samples] bare setups, then repeats fixed-size reps
   (a fresh cluster or entity each) until [S] seconds are spent, checks
   every rep's deliveries with {!Gate}, and prints one line per rep, one
   per metric, and the JSON result line last. End-to-end figures are
   medians over reps (tap: the median of each rep's p50/p99), so a short
   slow spell of the host moves them less than a mean would. With
   [--trace 1] every other rep is traced: the per-layer metrics come from
   the traced reps, the untraced ones give the tracing overhead, and the
   spans are written as Chrome trace-event JSON under DIR. *)

open Common

type workload = {
  name : string;
  rep : seed:int -> tr:Layers.t option -> setup_only:bool -> Rep.t;
}

(* Reps shrink with very short runs (the smoke self-test) so that at
   least two fit; from 20 s on they keep their full size. *)
let scaled ~seconds full = max 8 (min full (int_of_float (float_of_int full *. seconds /. 20.)))

let workloads ~seconds =
  [
    {
      name = "udp_saturate_n16";
      rep =
        (fun ~seed ~tr ->
          Udp.rep
            {
              Udp.n = 16;
              policy = Udp.Closed 2;
              loss = 0.;
              registry = false;
              per_source = scaled ~seconds 64;
            }
            ~seed ~tr);
    };
    {
      name = "udp_paced_loss_n8";
      rep =
        (fun ~seed ~tr ->
          Udp.rep
            {
              Udp.n = 8;
              policy = Udp.Paced 2000.;
              loss = 0.02;
              registry = true;
              per_source = scaled ~seconds 500;
            }
            ~seed ~tr);
    };
    {
      name = "ingest_n8";
      rep =
        (fun ~seed ~tr ->
          Ingest.rep ~per_source:(scaled ~seconds 10_000) ~seed ~tr);
    };
  ]

(* Host-speed reference: a fixed integer loop, in ms. Printed beside the
   metrics so a reader can tell a slow host from a slow program; it is
   deliberately not used to rescale anything. *)
let hostref_ms () =
  let t0 = now_s () in
  let x = ref 0x2545F491 in
  for _ = 1 to 30_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  (now_s () -. t0) *. 1e3

let setup_samples = 15

let usage () =
  prerr_endline
    "usage: cobench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and out = ref "cobench/out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) (workloads ~seconds:!seconds) with
    | Some w -> w
    | None -> prerr_endline ("unknown workload " ^ !workload); exit 2
  in
  let host_before = hostref_ms () in
  (* Setup is ~1 ms, so one sample per rep would leave setup_s at the
     mercy of a single page-fault storm: time extra setups first. *)
  let setups =
    List.init setup_samples (fun k ->
        (w.rep ~seed:((!seed * 1009) - k - 1) ~tr:None ~setup_only:true).Rep.setup_s)
  in
  let tr = if !trace then Some (Layers.create ()) else None in
  let untraced = ref [] and traced = ref [] and first = ref None in
  let start = now_s () in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let rep_tr = if !k mod 2 = 0 then tr else None in
    let t0 = now_s () in
    let r = w.rep ~seed:((!seed * 1009) + !k) ~tr:rep_tr ~setup_only:false in
    let took = now_s () -. t0 in
    Printf.printf
      "rep %d%s: setup %.2f ms, %d deliveries in %.3f s = %.0f/s, %.2f cpu \
       us/delivery, tap p50 %.2f p99 %.2f ms, rss %.1f MB\n%!"
      !k (if Option.is_some rep_tr then " (traced)" else "")
      (r.Rep.setup_s *. 1e3) r.Rep.deliveries r.Rep.timed_s
      (float_of_int r.Rep.deliveries /. r.Rep.timed_s)
      (r.Rep.cpu_s *. 1e6 /. float_of_int (max 1 r.Rep.deliveries))
      (Fbuf.percentile r.Rep.tap_ms 50.) (Fbuf.percentile r.Rep.tap_ms 99.) r.Rep.rss_mb;
    (match rep_tr with Some _ -> traced := r :: !traced | None -> untraced := r :: !untraced);
    if !k = 0 then first := Some r;
    incr k;
    Gc.compact ();
    let min_reps = if !trace then 2 else 1 in
    if !k >= min_reps && now_s () -. start +. took > !seconds then continue := false
  done;
  let host_after = hostref_ms () in
  let all = !traced @ !untraced in
  (* OCaml 5.1 never returns heap to the OS, so the resident set only
     ratchets up across reps and its final value would depend on how many
     reps the host managed. The first rep, in a fresh process, is a fixed
     amount of work with a fixed footprint. *)
  let first_rep = Option.get !first in
  let timed = if !trace then !traced else !untraced in
  let sum f = List.fold_left (fun a r -> a + f r) 0 all in
  let delivered = sum (fun r -> r.Rep.gate.delivered) in
  let expected = sum (fun r -> r.Rep.gate.expected) in
  let violations = sum (fun r -> r.Rep.gate.violation_count) in
  let tap_samples = List.fold_left (fun a r -> a + Fbuf.length r.Rep.tap_ms) 0 timed in
  let med f = median (List.map f timed) in
  let rate r = float_of_int r.Rep.deliveries /. r.Rep.timed_s in
  let e2e =
    [
      ("setup_s", median (setups @ List.map (fun r -> r.Rep.setup_s) all), "s");
      ("deliveries_per_s", med rate, "1/s");
      ("tap_p50_ms", med (fun r -> Fbuf.percentile r.Rep.tap_ms 50.), "ms");
      ("tap_p99_ms", med (fun r -> Fbuf.percentile r.Rep.tap_ms 99.), "ms");
      ( "cpu_us_per_delivery",
        med (fun r -> r.Rep.cpu_s *. 1e6 /. float_of_int (max 1 r.Rep.deliveries)),
        "us" );
      ( "wire_bytes_per_delivery",
        med (fun r -> ratio r.Rep.wire_bytes r.Rep.deliveries),
        "B" );
      ("peak_rss_mb", first_rep.Rep.rss_mb, "MB");
      ("delivered_frac", ratio delivered expected, "frac");
    ]
  in
  let metrics =
    match tr with
    | None -> e2e
    | Some acc ->
      let file = Filename.concat !out (Printf.sprintf "trace-%s-seed%d.json" w.name !seed) in
      (try
         if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
         Spans.write acc.spans ~file ~workload:w.name;
         Printf.printf "trace: %s (%d spans, %d beyond the cap)\n" file
           acc.spans.len acc.spans.dropped
       with Sys_error msg -> Printf.printf "trace: not written (%s)\n" msg);
      let r_tr = median (List.map rate !traced)
      and r_un = median (List.map rate !untraced) in
      Printf.printf
        "tracing overhead: %.1f%% of deliveries/s (traced %.0f vs untraced %.0f, %d+%d reps)\n"
        (100. *. (r_un -. r_tr) /. r_un) r_tr r_un (List.length !traced)
        (List.length !untraced);
      Layers.metrics acc
  in
  List.iter
    (fun r -> List.iter (Printf.printf "gate violation: %s\n") r.Rep.gate.violations)
    all;
  Printf.printf "workload %s seed %d: %d reps in %.1fs, %d tap samples\n" w.name
    !seed !k (now_s () -. start) tap_samples;
  Printf.printf "host reference: %.1f ms before, %.1f ms after (fixed integer loop)\n"
    host_before host_after;
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %14.6g %s\n" name v unit) metrics;
  (* A reordering can count as a violation and a missing delivery both. *)
  let attempted = max 1 expected in
  let failed = min attempted (expected - delivered + violations) in
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))
