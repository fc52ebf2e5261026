(* Benchmark-side spans for the traced run: one record per call into a
   layer's public function, kept in memory (up to [cap]) and written at
   exit as Chrome trace-event JSON, one track per layer — the format the
   repo's [--trace-out] Perfetto files use, so both open in the same
   viewer. Durations for the per-layer statistics are accumulated by the
   callers separately, so the cap bounds only the file. *)

type layer = Transport | Pdu | Core | Obs | Loadgen

let layers = [ Transport; Pdu; Core; Obs; Loadgen ]

let layer_name = function
  | Transport -> "transport"
  | Pdu -> "pdu"
  | Core -> "core"
  | Obs -> "obs"
  | Loadgen -> "loadgen"

let tid = function
  | Transport -> 1
  | Pdu -> 2
  | Core -> 3
  | Obs -> 4
  | Loadgen -> 5

type t = {
  cap : int;
  origin_ns : int;
  layer : layer array;
  name : string array;
  start_ns : int array;
  dur_ns : int array;
  mutable len : int;
  mutable dropped : int;
}

let create ~cap =
  {
    cap;
    origin_ns = Common.now_ns ();
    layer = Array.make cap Transport;
    name = Array.make cap "";
    start_ns = Array.make cap 0;
    dur_ns = Array.make cap 0;
    len = 0;
    dropped = 0;
  }

let record t layer name ~start_ns ~stop_ns =
  if t.len < t.cap then begin
    let i = t.len in
    t.layer.(i) <- layer;
    t.name.(i) <- name;
    t.start_ns.(i) <- start_ns - t.origin_ns;
    t.dur_ns.(i) <- stop_ns - start_ns;
    t.len <- i + 1
  end
  else t.dropped <- t.dropped + 1

let write t ~file ~workload =
  Out_channel.with_open_bin file (fun oc ->
      let pr fmt = Printf.fprintf oc fmt in
      pr "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%S,\"spans_dropped\":%d},\n\"traceEvents\":[\n"
        workload t.dropped;
      pr "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"cobench %s\"}}"
        workload;
      List.iter
        (fun l ->
          pr ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%S}}"
            (tid l) (layer_name l))
        layers;
      for i = 0 to t.len - 1 do
        pr ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":%S,\"name\":%S,\"ts\":%.3f,\"dur\":%.3f}"
          (tid t.layer.(i)) (layer_name t.layer.(i)) t.name.(i)
          (float_of_int t.start_ns.(i) /. 1e3)
          (float_of_int t.dur_ns.(i) /. 1e3)
      done;
      pr "\n]}\n")
