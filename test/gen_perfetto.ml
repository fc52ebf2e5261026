(* Regenerate the committed Perfetto golden fixture after an intentional
   exporter or scenario change:

     dune exec test/gen_perfetto.exe > test/fixtures/perfetto.golden.json

   The scenario here must stay byte-for-byte in sync with
   [perfetto_scenario] in test_trace.ml — same n, seed, loss and submit
   schedule — or the golden test will (correctly) fail. *)

module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Simtime = Repro_sim.Simtime
module Trace_ctx = Repro_obs.Trace_ctx
module Critpath = Repro_obs.Critpath

let () =
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
  | Some tr -> print_string (Critpath.to_perfetto (Trace_ctx.spans tr))
  | None -> prerr_endline "tracing-enabled cluster has no recorder"; exit 1
