open Repro_core
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Memberwire = Repro_pdu.Memberwire
module Group = Repro_member.Group
module View = Repro_member.View

(* One scripted membership change, committed by an explicit [Cut] event once
   the epoch-0 script is exhausted and the members have reconciled. *)
type churn = Join | Leave of int

type config = {
  n : int;
  script : (int * string) list;
  churn : churn option;
  post_script : (int * string) list;
  max_drops : int;
  max_fires : int;
  max_states : int;
  max_depth : int;
  por : bool;
  protocol : Config.t;
  on_system : Entity.t array -> unit;
}

let default_config ~n =
  {
    n;
    script = List.init n (fun i -> (i mod n, Printf.sprintf "m%d" i));
    churn = None;
    post_script = [];
    max_drops = 0;
    (* Timer fires are budgeted like drops. Without a bound the heartbeat
       regenerates the alphabet forever: every fire may emit a sequenced
       empty, every empty provokes a confirmation, and the interleavings of
       that traffic dwarf the protocol logic under test. Even one mid-flight
       fire costs roughly an order of magnitude of states, so the default is
       none; budget fires explicitly in runs scoped to afford them. *)
    max_fires = 0;
    max_states = 200_000;
    max_depth = 200;
    por = true;
    protocol =
      {
        Config.default with
        defer = Config.Immediate;
        check_level = Config.Off;
        (* A tight window bounds the sequenced empties the heartbeat can
           emit before the window closes (at most W+1 per entity), which is
           what keeps the state space small-scope. W=2 still exercises
           window closure, flow blocking and sliding. *)
        window = 2;
      };
    on_system = ignore;
  }

(* Transition alphabet. Deliver/Drop identify the transmission by its wire
   encoding, not by a queue position: replay is deterministic, the in-flight
   multiset at a given prefix is always the same, and — crucially for sleep
   sets — the identity of a pending event survives unrelated events that
   grow the in-flight lists. *)
type event =
  | Submit
  | Deliver of { dst : int; pdu : string }
  | Drop of { dst : int; pdu : string }
  | Fire of { entity : int }
  | Cut
      (* Commit the configured membership change: close epoch 0 at the
         reconciled REQ cut and rebuild the next view's entities from
         remapped bootstrap checkpoints. Old-epoch copies still in flight
         stay in flight — they are exactly the stragglers the entity-level
         cid guard (and the no-cross-epoch-delivery invariant) must fence. *)

type violation_report = {
  violation : Invariants.violation;
  schedule : string list;
}

type outcome = {
  states : int;
  transitions : int;
  max_depth_seen : int;
  truncated : bool;
  violation : violation_report option;
}

(* [entities]/[inflight]/[timers] are replaced wholesale by [Cut]: the new
   view may have a different size, and abandoning the old timer queues is
   the explorer's analog of the membership layer's generation guard. *)
type sys = {
  cfg : config;
  mutable entities : Entity.t array;
  mutable inflight : string list array; (* sorted encodings, per destination *)
  mutable timers : (int * (unit -> unit)) Queue.t array;
      (* (delay label, action) *)
  monitor : Invariants.Monitor.t;
  mutable script_pos : int;
  mutable post_pos : int;
  mutable epoch : int;
  mutable drops_used : int;
  mutable fires_used : int;
  mutable deep_checks : bool;
      (* The full catalog runs only on a path's last event: every proper
         prefix was already checked when its own DFS node was explored, so
         replaying it needs the (cheap, stateful) monitor bookkeeping but
         not the O(log²) structural invariants again. *)
  mutable violation : Invariants.violation option;
}

let record sys = function
  | [] -> ()
  | v :: _ -> if sys.violation = None then sys.violation <- Some v

(* Entities run against a frozen clock (now = 0): interleaving, not timing,
   is the state space. Timers become explicit Fire events, fired per entity
   in arming order; the spacing checks of [Deferred] confirmation never pass
   under a frozen clock, so the explorer requires Immediate or Never. *)
let monitor_slots cfg =
  (* A join adds a rank, so the monitor needs one slot beyond the initial
     view; ranks freed by a leave simply go quiet. *)
  match cfg.churn with Some Join -> cfg.n + 1 | Some (Leave _) | None -> cfg.n

(* Actions read [sys.inflight]/[sys.timers] through the record, so entities
   built after a [Cut] target the replaced arrays, not the epoch-0 ones. *)
let actions_for sys ~id ~view_n =
  let put ~dst s =
    sys.inflight.(dst) <- List.merge String.compare [ s ] sys.inflight.(dst)
  in
  {
    Entity.broadcast =
      (fun pdu ->
        let s = Bytes.to_string (Codec.encode pdu) in
        for dst = 0 to view_n - 1 do
          put ~dst s
        done);
    unicast = (fun ~dst pdu -> put ~dst (Bytes.to_string (Codec.encode pdu)));
    deliver = (fun _ -> ());
    now = (fun () -> 0);
    set_timer = (fun ~delay f -> Queue.add (delay, f) sys.timers.(id));
    available_buffer = (fun () -> sys.cfg.protocol.Config.initial_buf);
  }

let register sys id e =
  Entity.add_observer e (function
    | Entity.Acknowledged d ->
      record sys (Invariants.Monitor.note_delivery sys.monitor ~entity:id d)
    | Entity.Accepted d ->
      record sys (Invariants.Monitor.note_accept sys.monitor ~entity:id d)
    | Entity.Preacknowledged _ | Entity.Gap_detected _ | Entity.Ret_answered _
      ->
      ());
  (* Baseline snapshot so the first real step has monotonicity cover. *)
  ignore (Invariants.Monitor.note_step sys.monitor e)

let make_sys cfg =
  let sys =
    {
      cfg;
      entities = [||];
      inflight = Array.make cfg.n [];
      timers = Array.init cfg.n (fun _ -> Queue.create ());
      monitor = Invariants.Monitor.create ~n:(monitor_slots cfg);
      script_pos = 0;
      post_pos = 0;
      epoch = 0;
      drops_used = 0;
      fires_used = 0;
      deep_checks = true;
      violation = None;
    }
  in
  sys.entities <-
    Array.init cfg.n (fun id ->
        Entity.create ~config:cfg.protocol ~id ~n:cfg.n
          ~actions:(actions_for sys ~id ~view_n:cfg.n));
  Array.iteri (fun id e -> register sys id e) sys.entities;
  cfg.on_system sys.entities;
  sys

let sender_memo : (string, int) Hashtbl.t = Hashtbl.create 256

let sender_of pdu =
  match Hashtbl.find_opt sender_memo pdu with
  | Some src -> src
  | None ->
    (match Codec.decode (Bytes.of_string pdu) with
    | Ok p ->
      let src = Pdu.src p in
      Hashtbl.add sender_memo pdu src;
      src
    | Error _ -> invalid_arg "Explorer: undecodable in-flight PDU")

let remove_occurrence list s =
  let rec go = function
    | [] -> invalid_arg "Explorer: event references a PDU no longer in flight"
    | x :: rest -> if String.equal x s then rest else x :: go rest
  in
  go list

let post sys id =
  if sys.deep_checks then
    record sys (Invariants.check_entity sys.entities.(id));
  (* note_step must run on every step regardless — it advances the
     monotonicity snapshots the next step is judged against. *)
  record sys (Invariants.Monitor.note_step sys.monitor sys.entities.(id))

let next_submission sys =
  if sys.script_pos < List.length sys.cfg.script then
    Some (List.nth sys.cfg.script sys.script_pos)
  else if sys.epoch > 0 then List.nth_opt sys.cfg.post_script sys.post_pos
  else None

(* The barrier's commit precondition, explorer-style: the epoch-0 script is
   spent and the members have reached the reconciled cut (Group.reconciled).
   Copies may still sit in flight: duplicates of already-accepted PDUs (the
   stale stragglers the new epoch must fence) and copies nobody accepted,
   which the cut uniformly forgets — legal under view synchrony, since no
   member delivered them. *)
let cut_enabled sys =
  sys.cfg.churn <> None && sys.epoch = 0
  && sys.script_pos >= List.length sys.cfg.script
  && Group.reconciled sys.entities

let do_cut sys =
  let old = sys.entities in
  let req = Entity.req old.(0) in
  let closing =
    { View.epoch = sys.epoch; members = Array.init (Array.length old) Fun.id }
  in
  let next =
    Result.get_ok
      (View.apply closing
         (match sys.cfg.churn with
         | Some Join -> Memberwire.Join (Array.length old)
         | Some (Leave l) -> Memberwire.Leave l
         | None -> assert false))
  in
  let n_new = View.size next in
  let map = View.rank_map ~closing ~next in
  let config' = Group.epoch_config sys.cfg.protocol ~epoch:next.View.epoch in
  (* Survivors keep their queues of stale old-epoch copies under their new
     rank; the joiner starts clean; the leaver's queue dies with its NIC.
     Fresh timer queues are the explorer's generation guard: a closed
     epoch's armed timers never fire. *)
  sys.inflight <-
    Array.init n_new (fun k ->
        match map k with Some o -> sys.inflight.(o) | None -> []);
  sys.timers <- Array.init n_new (fun _ -> Queue.create ());
  sys.epoch <- next.View.epoch;
  (* The joiner restores the very bytes the sponsor (lowest-ranked
     survivor) would build for its rank — Group ships them as the
     co-checkpoint-v1 state transfer. *)
  let sponsor = match map 0 with Some o -> o | None -> assert false in
  sys.entities <-
    Array.init n_new (fun k ->
        let basis =
          match map k with Some o -> old.(o) | None -> old.(sponsor)
        in
        let blob =
          Group.bootstrap sys.cfg.protocol ~closing ~next ~req ~rank:k basis
        in
        match
          Entity.restore ~expect_id:k ~expect_n:n_new ~config:config'
            ~actions:(actions_for sys ~id:k ~view_n:n_new)
            blob
        with
        | Ok e -> e
        | Error err ->
          invalid_arg
            (Format.asprintf "Explorer: cut bootstrap rejected: %a"
               Entity.pp_restore_error err));
  for slot = 0 to monitor_slots sys.cfg - 1 do
    Invariants.Monitor.note_view_change sys.monitor ~entity:slot
  done;
  Array.iteri
    (fun id e ->
      register sys id e;
      Entity.kick e)
    sys.entities

let apply sys ev =
  let step id f =
    try
      f ();
      post sys id
    with
    | Entity.Protocol_invariant detail ->
      record sys
        [ { Invariants.entity = id; invariant = "runtime-assertion"; detail } ]
    | Invalid_argument detail | Failure detail ->
      (* An entity crash is a counterexample, not a checker failure: report
         it with its schedule instead of aborting the search. A seeded
         [Skip_epoch_guard] dies here when a differently-sized stale
         straggler reaches the clock code — the crash is the point: the
         fence is what keeps mis-shaped closed-epoch PDUs out. *)
      record sys
        [ { Invariants.entity = id; invariant = "runtime-exception"; detail } ]
  in
  match ev with
  | Submit ->
    let src, payload =
      match next_submission sys with
      | Some x -> x
      | None -> invalid_arg "Explorer: Submit with exhausted scripts"
    in
    if sys.script_pos < List.length sys.cfg.script then
      sys.script_pos <- sys.script_pos + 1
    else sys.post_pos <- sys.post_pos + 1;
    step src (fun () -> ignore (Entity.submit sys.entities.(src) payload))
  | Cut ->
    (try
       do_cut sys;
       Array.iteri (fun id _ -> post sys id) sys.entities
     with Entity.Protocol_invariant detail ->
       record sys
         [ { Invariants.entity = -1; invariant = "runtime-assertion"; detail } ])
  | Deliver { dst; pdu } ->
    sys.inflight.(dst) <- remove_occurrence sys.inflight.(dst) pdu;
    let p =
      match Codec.decode (Bytes.of_string pdu) with
      | Ok p -> p
      | Error _ -> invalid_arg "Explorer: undecodable in-flight PDU"
    in
    step dst (fun () -> Entity.receive sys.entities.(dst) p)
  | Drop { dst; pdu } ->
    sys.inflight.(dst) <- remove_occurrence sys.inflight.(dst) pdu;
    sys.drops_used <- sys.drops_used + 1
  | Fire { entity } ->
    let _, f = Queue.pop sys.timers.(entity) in
    sys.fires_used <- sys.fires_used + 1;
    step entity f

let pdu_brief pdu =
  match Codec.decode (Bytes.of_string pdu) with
  | Ok p -> Pdu.to_string p
  | Error _ -> "<undecodable>"

let describe sys = function
  | Submit ->
    (match next_submission sys with
    | Some (src, payload) ->
      Printf.sprintf "submit src=%d payload=%S" src payload
    | None -> "submit <exhausted>")
  | Deliver { dst; pdu } ->
    Printf.sprintf "deliver dst=%d %s" dst (pdu_brief pdu)
  | Drop { dst; pdu } -> Printf.sprintf "drop dst=%d %s" dst (pdu_brief pdu)
  | Fire { entity } -> Printf.sprintf "fire entity=%d" entity
  | Cut ->
    Printf.sprintf "cut: commit epoch %d (%s)" (sys.epoch + 1)
      (match sys.cfg.churn with
      | Some Join ->
        Printf.sprintf "join as rank %d" (Array.length sys.entities)
      | Some (Leave l) -> Printf.sprintf "leave of rank %d" l
      | None -> "no churn configured")

(* Entities are mutable and unclonable, so DFS re-executes the event prefix
   from a fresh system for every node — O(depth) work per state, traded for
   not having to write (and trust) a deep-copy of the entity. *)
(* Fast path: no schedule strings. Descriptions are rebuilt by
   [describe_path] only for the single path that violated. *)
let replay cfg path =
  let sys = make_sys cfg in
  let last = List.length path - 1 in
  List.iteri
    (fun i ev ->
      if sys.violation = None then begin
        sys.deep_checks <- i = last;
        apply sys ev
      end)
    path;
  sys.deep_checks <- true;
  sys

let describe_path cfg path =
  let sys = make_sys cfg in
  let descr = ref [] in
  List.iter
    (fun ev ->
      if sys.violation = None then begin
        descr := describe sys ev :: !descr;
        apply sys ev
      end)
    path;
  List.rev !descr

let enabled sys =
  let cfg = sys.cfg in
  let n = Array.length sys.entities in
  let evs = ref [] in
  if cut_enabled sys then evs := Cut :: !evs;
  for e = n - 1 downto 0 do
    if sys.fires_used < cfg.max_fires && not (Queue.is_empty sys.timers.(e))
    then evs := Fire { entity = e } :: !evs
  done;
  for dst = n - 1 downto 0 do
    (* Identical retransmissions in flight are one action: deduplicate. *)
    let distinct = List.sort_uniq String.compare sys.inflight.(dst) in
    List.iter
      (fun pdu ->
        (* [sender_of <> dst] keeps loopback copies undroppable. Post-cut
           the comparison is against the *new* rank — close enough: a
           stale copy is guard-dropped on delivery anyway. *)
        if sys.drops_used < cfg.max_drops && sender_of pdu <> dst then
          evs := Drop { dst; pdu } :: !evs;
        evs := Deliver { dst; pdu } :: !evs)
      (List.rev distinct)
  done;
  if next_submission sys <> None then evs := Submit :: !evs;
  !evs

(* Dependence relation for sleep-set reduction. Independent events commute
   (same resulting state either order) and never disable each other:
   - events driving different entities commute — a step only mutates its own
     entity plus *appends* to in-flight lists, and Deliver identity is the
     encoding, which appends do not disturb;
   - Fire{e} always means "oldest pending timer of e": other events only
     append to e's timer queue, so the identity is stable too;
   - Drop touches no entity; it conflicts only with the budget (other Drops)
     and with consuming the same transmission. *)
let dependent sys e1 e2 =
  let entity_of = function
    | Submit -> Option.map fst (next_submission sys)
    | Deliver { dst; _ } -> Some dst
    | Drop _ -> None
    | Fire { entity } -> Some entity
    | Cut -> None
  in
  match (e1, e2) with
  (* Cut replaces every entity, every queue and the epoch: it commutes
     with nothing. *)
  | Cut, _ | _, Cut -> true
  | Submit, Submit -> true
  | Drop _, Drop _ -> true
  (* Fires share a budget, so one can disable another: dependent. *)
  | Fire _, Fire _ -> true
  | Drop { dst = d1; pdu = p1 }, Deliver { dst = d2; pdu = p2 }
  | Deliver { dst = d2; pdu = p2 }, Drop { dst = d1; pdu = p1 } ->
    d1 = d2 && String.equal p1 p2
  | Drop _, (Submit | Fire _) | (Submit | Fire _), Drop _ -> false
  | _ -> (
    match (entity_of e1, entity_of e2) with
    | Some a, Some b -> a = b
    | _ -> false)

exception Found of violation_report

let subset a b = List.for_all (fun x -> List.mem x b) a

let run cfg =
  if cfg.n < 2 then invalid_arg "Explorer.run: n must be >= 2";
  (match cfg.protocol.Config.defer with
  | Config.Deferred _ ->
    invalid_arg
      "Explorer.run: Deferred confirmation stalls under the frozen clock; \
       use Immediate or Never"
  | Config.Immediate | Config.Never -> ());
  List.iter
    (fun (src, _) ->
      if src < 0 || src >= cfg.n then
        invalid_arg "Explorer.run: script source out of range")
    cfg.script;
  (match cfg.churn with
  | Some (Leave l) ->
    if l < 0 || l >= cfg.n then
      invalid_arg "Explorer.run: leave rank out of range";
    if cfg.n - 1 < 2 then
      invalid_arg "Explorer.run: a leave must keep at least 2 members"
  | Some Join | None -> ());
  if cfg.post_script <> [] && cfg.churn = None then
    invalid_arg "Explorer.run: post_script requires churn";
  let post_n =
    match cfg.churn with
    | Some Join -> cfg.n + 1
    | Some (Leave _) -> cfg.n - 1
    | None -> cfg.n
  in
  List.iter
    (fun (src, _) ->
      if src < 0 || src >= post_n then
        invalid_arg "Explorer.run: post-script source out of range")
    cfg.post_script;
  let visited : (string, event list) Hashtbl.t = Hashtbl.create 4096 in
  let states = ref 0 in
  let transitions = ref 0 in
  let max_depth_seen = ref 0 in
  let truncated = ref false in
  let rec explore path sleep =
    if List.length path > cfg.max_depth then truncated := true
    else begin
      let sys = replay cfg path in
      (match sys.violation with
      | Some violation ->
        raise (Found { violation; schedule = describe_path cfg path })
      | None -> ());
      let key = state_key sys in
      let proceed =
        match Hashtbl.find_opt visited key with
        | Some stored when subset stored sleep -> false
        | Some stored ->
          (* Seen before, but with more futures suppressed than now: the
             remembered sleep set shrinks to the intersection and the state
             is re-expanded so nothing stays unexplored. *)
          Hashtbl.replace visited key
            (List.filter (fun e -> List.mem e sleep) stored);
          true
        | None ->
          Hashtbl.add visited key sleep;
          incr states;
          true
      in
      if proceed then begin
        if !states > cfg.max_states then truncated := true
        else begin
          let d = List.length path in
          if d > !max_depth_seen then max_depth_seen := d;
          let evs = enabled sys in
          let evs =
            if cfg.por then
              List.filter (fun e -> not (List.mem e sleep)) evs
            else evs
          in
          let sleeping = ref sleep in
          List.iter
            (fun e ->
              incr transitions;
              let child_sleep =
                if cfg.por then
                  List.filter (fun e' -> not (dependent sys e e')) !sleeping
                else []
              in
              explore (path @ [ e ]) child_sleep;
              if cfg.por then sleeping := e :: !sleeping)
            evs
        end
      end
    end
  and state_key sys =
    (* Timer queues enter only by length: which timers are pending is
       already in the signature (the armed flags), their delays are
       meaningless under the frozen clock, and their firing order commutes —
       every pending closure reads and writes disjoint entity state, so any
       order reaches the same states. *)
    let parts = ref [] in
    for id = Array.length sys.entities - 1 downto 0 do
      parts :=
        Entity.signature sys.entities.(id)
        :: string_of_int (Queue.length sys.timers.(id))
        :: string_of_int (List.length sys.inflight.(id))
        :: (sys.inflight.(id) @ !parts)
    done;
    State_hash.digest
      (string_of_int sys.script_pos
      :: string_of_int sys.post_pos
      :: string_of_int sys.epoch
      :: string_of_int sys.drops_used
      :: string_of_int sys.fires_used
      :: !parts)
  in
  match explore [] [] with
  | () ->
    {
      states = !states;
      transitions = !transitions;
      max_depth_seen = !max_depth_seen;
      truncated = !truncated;
      violation = None;
    }
  | exception Found report ->
    {
      states = !states;
      transitions = !transitions;
      max_depth_seen = !max_depth_seen;
      truncated = !truncated;
      violation = Some report;
    }

let pp_outcome ppf (o : outcome) =
  match o.violation with
  | None ->
    Format.fprintf ppf
      "clean: %d states, %d transitions, max depth %d%s" o.states
      o.transitions o.max_depth_seen
      (if o.truncated then " (TRUNCATED: budget exhausted)" else "")
  | Some r ->
    Format.fprintf ppf
      "@[<v>VIOLATION after %d states: %a@,violating schedule:@,%a@]" o.states
      Invariants.pp_violation r.violation
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
           Format.fprintf ppf "  %s" s))
      r.schedule
