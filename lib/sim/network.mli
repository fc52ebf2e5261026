(** The MC (multi-channel) network service of the paper.

    A broadcast medium connecting [n] endpoints over a {!Topology.t}:

    - the wire itself is error-free (high-speed network assumption);
    - each endpoint has a bounded inbox ({!Repro_util.Ring_buffer}) and a
      finite per-message service (processing) time. When transmissions arrive
      faster than the endpoint processes them the inbox overflows and the PDU
      is {e lost} — the paper's buffer-overrun failure;
    - messages between a pair of endpoints arrive in FIFO order (per-channel
      order), but different receivers may observe different interleavings of
      different senders — exactly the "less-reliable MC service";
    - a broadcast is delivered to {e every} endpoint including the sender
      (loopback is lossless: an entity never overruns on its own PDU, it
      already holds it in its sending log).

    For experiments the medium also supports iid loss injection and one
    per-copy fault hook ({!set_fault_hook}), the single point where
    copies are dropped, mangled or duplicated on purpose. *)

type 'a t

type 'a config = {
  topology : Topology.t;
  inbox_capacity : int;  (** Buffer units per endpoint (paper's BUF pool). *)
  service_time : 'a -> Simtime.t;
      (** Processing time the receiving entity spends per message — the
          paper's Tco model. *)
  transmit_time : 'a -> Simtime.t;
      (** Serialization delay added on the sender side (0 for an idealized
          infinite-bandwidth medium). *)
  loss_prob : float;  (** iid probability an arriving copy is discarded. *)
  seed : int;  (** Seed for the loss-injection stream. *)
}

val default_config : Topology.t -> 'a config
(** Capacity 64, constant 10µs service, zero transmit time, no injected
    loss, seed 0. *)

val create : Engine.t -> 'a config -> 'a t

val n : 'a t -> int
val engine : 'a t -> Engine.t
val trace : 'a t -> Trace.t

val attach : 'a t -> id:int -> handler:(src:int -> 'a -> unit) -> unit
(** Install endpoint [id]'s receive handler, called at processing-completion
    time. @raise Invalid_argument if [id] is out of range or already
    attached. *)

val broadcast : 'a t -> src:int -> 'a -> int
(** [broadcast net ~src m] puts one copy of [m] on the medium for every
    endpoint (including [src], lossless loopback). Returns the transmission
    uid recorded in the trace. *)

val unicast : 'a t -> src:int -> dst:int -> 'a -> int
(** Point-to-point variant (used for retransmissions when responding to a
    specific RET). Subject to the same loss mechanisms unless [dst = src]. *)

val available_buffer : 'a t -> int -> int
(** Free inbox units at an endpoint right now — what the protocol advertises
    in the BUF field. *)

val set_fault_hook : 'a t -> (dst:int -> src:int -> 'a -> 'a list) -> unit
(** [set_fault_hook net f]: every non-loopback arriving copy is first mapped
    through [f ~dst ~src m], which returns the list of copies actually
    offered to the endpoint: [[]] discards it (recorded as [Faulted]), [[m]]
    passes it through, a mangled payload models corruption and more than one
    entry models duplication. The surviving copies then face iid loss and
    the bounded inbox. Loopback copies bypass the hook. This is the
    injection point of {!Repro_fault.Injector} (chaos plans and compiled
    scenarios) and of tests that script one exact loss. Replaces any
    previous hook. *)

val clear_fault_hook : 'a t -> unit

val set_service_hook : 'a t -> (dst:int -> Simtime.t -> Simtime.t) -> unit
(** [set_service_hook net f] transforms each per-message service interval:
    the endpoint [dst] about to spend [d] serving a message spends
    [f ~dst d] instead. Used by the chaos layer to model slow-entity
    stalls. Replaces any previous hook. *)

val transmissions : 'a t -> int
(** Total copies put on the medium so far (n per broadcast). *)

val losses : 'a t -> int
(** Total copies lost (all reasons). *)
