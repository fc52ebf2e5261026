(* What one rep (one fresh cluster or entity doing a fixed amount of
   work) reports back to the run loop. *)

type t = {
  setup_s : float;  (** Create + bind + schedule build; no warm-up. *)
  timed_s : float;  (** Wall time of the timed phase. *)
  cpu_s : float;  (** Process user+sys time over the timed phase. *)
  deliveries : int;  (** Application deliveries seen in the timed phase. *)
  wire_bytes : int;  (** Bytes framed onto the wire in the rep. *)
  rss_mb : float;
      (** Resident set at the end of the timed phase, where a rep's heap
          peaks: the cluster keeps every delivery until it is closed. *)
  gate : Gate.result;
  tap_ms : Common.Fbuf.t;
      (** One sample per (message, member): due time to delivery. *)
}

(* A rep cut short after its setup: the run loop times several setups
   per run and reports their median. *)
let setup_only setup_s =
  {
    setup_s;
    timed_s = 0.;
    cpu_s = 0.;
    deliveries = 0;
    wire_bytes = 0;
    rss_mb = 0.;
    gate = { Gate.delivered = 0; expected = 0; violations = []; violation_count = 0 };
    tap_ms = Common.Fbuf.create ();
  }
