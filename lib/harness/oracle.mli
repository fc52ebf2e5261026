(** Service-property oracles (§2.2–2.3 of the paper).

    Given the delivery order observed at every entity and a ground-truth
    precedence relation, these check exactly the properties the paper
    defines for receipt logs:

    - {b information-preserved}: every PDU destined to an entity is
      delivered there (and here additionally: exactly once);
    - {b local-order-preserved}: per-source delivery order follows the
      sending order;
    - {b causality-preserved}: no delivery order inverts the
      causality-precedence relation;
    - {b agreement} (TO-service check for the baseline): all entities
      deliver the same sequence. *)

type violation = {
  entity : int;
  earlier : int;  (** tag delivered earlier. *)
  later : int;  (** tag delivered later. *)
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** {2 Generic checks over tag sequences} *)

val duplicate_tags : deliveries:int list array -> violation list
(** A tag delivered twice at the same entity. *)

val missing_tags : expected:int list -> deliveries:int list array -> (int * int) list
(** [(entity, tag)] pairs where [tag] was expected but never delivered. *)

val causality_violations :
  precedes:(int -> int -> bool) -> deliveries:int list array -> violation list
(** Pairs delivered in an order inverting [precedes]. O(m²) per entity —
    fine at test scale. *)

val fifo_violations :
  key_of:(int -> int * int) -> deliveries:int list array -> violation list
(** Same-source deliveries whose sequence numbers are not increasing. *)

val total_order_agreement : deliveries:int list array -> bool
(** All entities delivered pairwise-equal prefixes (the shorter sequence is
    a prefix of the longer). *)

(** {2 CO-cluster report} *)

type report = {
  expected : int;
      (** Data messages actually sent: the length of [expected_tags]
          (e.g. {!Repro_core.Cluster.data_tags}). A submission still
          queued behind the flow window, or lost with a crash, is not
          sent and does not count; callers that must account for every
          submission compare this against their own submission count. *)
  delivered_per_entity : int array;
  missing : (int * int) list;
  dups : violation list;
  fifo : violation list;
  causal : violation list;
}

val check_deliveries :
  expected_tags:int list ->
  precedes:(int -> int -> bool) ->
  key_of:(int -> int * int) ->
  deliveries:int list array ->
  report
(** Pure report over externally supplied delivery sequences and precedence —
    usable on replayed traces as well as live clusters. *)

val check_recording :
  Repro_core.Cluster.recording -> entities:int list -> expected_tags:int list
  -> report
(** {!check_deliveries} over the recorded deliveries at the slots
    [entities] (report entity numbers are positions in the list) against
    the recording's ground-truth relation. *)

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
