(** The one {!Entity.probe} wiring of the receipt-ladder recorder.

    Both hosts — the simulated {!Cluster} and the real-socket
    [Udp_cluster] — and the explorer tests instrument their entities
    through {!of_recorder}, so every stamp reaches
    {!Repro_obs.Trace_ctx} the same way. It also owns the two per-entity
    families the recorder itself does not: [co_pdus_received_total] and
    [co_ret_backoff_us], registered in the recorder's registry (none
    without one). *)

val of_recorder :
  Repro_obs.Trace_ctx.t ->
  entity:int ->
  ?incarnation:int ->
  now:(unit -> int) ->
  unit ->
  Entity.probe
(** The probe for entity [entity] (its [entity] label, which is the
    node's rank on hosts that remap ranks). [incarnation] (default 0)
    tags the spans this entity object completes; [now] is the host's
    µs clock. The clock is read only at stamps the recorder consumes:
    receive and park stamps are skipped unless it keeps spans. *)
