open Repro_pdu
module Registry = Repro_obs.Registry
module Trace_ctx = Repro_obs.Trace_ctx

let of_recorder r ~entity:id ?(incarnation = 0) ~now () =
  let label = [ ("entity", string_of_int id) ] in
  let received =
    Option.map
      (fun reg ->
        Registry.counter reg
          ~help:"Data PDUs received, including duplicates and out-of-order"
          ~name:"co_pdus_received_total" label)
      (Trace_ctx.registry r)
  in
  let backoff =
    Option.map
      (fun reg ->
        Registry.histogram reg
          ~help:"RET retry delay after each backoff step, microseconds"
          ~name:"co_ret_backoff_us" label)
      (Trace_ctx.registry r)
  in
  let spans = Option.is_some (Trace_ctx.salt r) in
  let data d = not (Pdu.is_confirmation d) in
  {
    Entity.on_submit = (fun () -> Trace_ctx.on_submit r ~src:id ~now:(now ()));
    on_transmit =
      (fun d ->
        Trace_ctx.on_send r ~src:d.src ~seq:d.seq ~data:(data d) ~now:(now ()));
    on_receive =
      (fun d ->
        (match received with Some c -> Registry.inc c | None -> ());
        if spans && data d then
          Trace_ctx.on_receive r ~entity:id ~src:d.src ~seq:d.seq ~now:(now ()));
    on_park =
      (fun d ->
        if spans && data d then
          Trace_ctx.on_park r ~entity:id ~src:d.src ~seq:d.seq);
    on_accept =
      (fun d ->
        Trace_ctx.on_accept r ~entity:id ~src:d.src ~seq:d.seq ~data:(data d)
          ~now:(now ()));
    on_preack =
      (fun d ->
        Trace_ctx.on_preack r ~entity:id ~src:d.src ~seq:d.seq ~data:(data d)
          ~now:(now ()));
    on_ack =
      (fun d ->
        Trace_ctx.on_ack r ~entity:id ~src:d.src ~seq:d.seq ~data:(data d)
          ~now:(now ()));
    on_deliver =
      (fun d ->
        Trace_ctx.on_deliver r ~entity:id ~incarnation ~src:d.src ~seq:d.seq
          ~now:(now ()));
    on_deliver_batch = (fun size -> Trace_ctx.on_deliver_batch r ~size);
    on_ret_backoff =
      (fun delay ->
        match backoff with Some h -> Registry.observe h delay | None -> ());
  }
