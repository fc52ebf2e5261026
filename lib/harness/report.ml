module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Histogram = Repro_obs.Histogram

let shape_line ~xs ~ys =
  match List.combine xs ys with
  | pts when List.length pts >= 2 ->
    let slope, intercept = Stats.linear_fit pts in
    let r2 = Stats.r_squared pts in
    Printf.sprintf "linear fit: slope=%.4f intercept=%.4f R^2=%.4f" slope
      intercept r2
  | _ -> "linear fit: not enough points"
  | exception Invalid_argument _ -> "linear fit: unavailable"

let factor a b =
  if b = 0. then "inf" else Printf.sprintf "%.2fx" (a /. b)

let header s =
  let bar = String.make (String.length s + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n\n" bar s bar
[@@coaudit.allow
  "harness report renderer: stdout is this module's contract for bench \
   and cosim output"]

let para s = Printf.printf "%s\n\n" s
[@@coaudit.allow "harness report renderer: stdout is this module's contract"]

let ladder_table ?(title = "Receipt ladder (first send -> stage)")
    (ladder : Repro_obs.Trace_ctx.ladder) =
  let tbl =
    Table.create ~title
      ~columns:
        [
          ("stage", Table.Left);
          ("samples", Table.Right);
          ("mean ms", Table.Right);
          ("p50 ms", Table.Right);
          ("p90 ms", Table.Right);
          ("p99 ms", Table.Right);
        ]
  in
  let ms v = Table.fmt_float ~digits:3 (v /. 1000.) in
  let q s p =
    (* Bucket upper bounds are finite except the open-ended last bucket. *)
    let v = Histogram.percentile s p in
    if v = infinity then "inf" else ms v
  in
  let row name (s : Histogram.snapshot) =
    Table.add_row tbl
      [
        name;
        Table.fmt_int s.Histogram.count;
        ms (Histogram.mean s);
        q s 50.;
        q s 90.;
        q s 99.;
      ]
  in
  row "submit queue" ladder.Repro_obs.Trace_ctx.queue;
  Table.add_rule tbl;
  row "accept" ladder.Repro_obs.Trace_ctx.accept;
  row "preack" ladder.Repro_obs.Trace_ctx.preack;
  row "ack" ladder.Repro_obs.Trace_ctx.ack;
  row "deliver" ladder.Repro_obs.Trace_ctx.deliver;
  tbl

let pac_table ?(title = "PAC delivery probability by deadline")
    (curves : Pac.curve list) =
  let deadlines =
    List.sort_uniq Float.compare
      (List.concat_map
         (fun (c : Pac.curve) ->
           List.map (fun (p : Pac.point) -> p.Pac.deadline_ms) c.Pac.points)
         curves)
  in
  let tbl =
    Table.create ~title
      ~columns:
        (("deadline ms", Table.Right)
        :: List.map (fun (c : Pac.curve) -> (c.Pac.protocol, Table.Right)) curves)
  in
  List.iter
    (fun d ->
      Table.add_row tbl
        (Table.fmt_float ~digits:3 d
        :: List.map
             (fun c ->
               Table.fmt_float ~digits:4 (Pac.probability_at c ~deadline_ms:d))
             curves))
    deadlines;
  Table.add_rule tbl;
  Table.add_row tbl
    ("terminal"
    :: List.map (fun c -> Table.fmt_float ~digits:4 (Pac.terminal c)) curves);
  tbl

let attribution_table ?(title = "Delivery delay attribution")
    (s : Repro_obs.Critpath.summary) =
  let tbl =
    Table.create ~title
      ~columns:
        [
          ("cause", Table.Left);
          ("segments", Table.Right);
          ("total ms", Table.Right);
          ("max ms", Table.Right);
          ("share", Table.Right);
        ]
  in
  let ms us = Table.fmt_float ~digits:3 (float_of_int us /. 1000.) in
  let attributed = s.Repro_obs.Critpath.attributed_us in
  List.iter
    (fun (b : Repro_obs.Critpath.by_cause) ->
      Table.add_row tbl
        [
          Repro_obs.Critpath.cause_name b.cause;
          Table.fmt_int b.seg_count;
          ms b.total_us;
          ms b.max_us;
          (if attributed = 0 then "-"
           else
             Printf.sprintf "%.1f%%"
               (100. *. float_of_int b.total_us /. float_of_int attributed));
        ])
    s.Repro_obs.Critpath.by_cause;
  Table.add_rule tbl;
  Table.add_row tbl
    [
      Printf.sprintf "total (%d spans)" s.Repro_obs.Critpath.spans;
      "";
      ms attributed;
      "";
      (if attributed = 0 then "-" else "100.0%");
    ];
  tbl
