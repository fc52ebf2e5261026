(* Differential wire-equivalence suite for the v2 codec (DESIGN.md §14).

   Three layers of evidence that the compressed format changes nothing
   observable:

   - codec level: round-trip and size-exactness properties for v2 frames
     (single and batched), plus adversarial fuzz — every truncation, bit
     flip and garbage datagram must come back as a clean [Error], and
     hand-crafted frames must hit each v2-specific rejection (non-canonical
     varints, corrupt varints, stale delta bases, bad delta indexes);
   - byte level: a committed golden-vector fixture (test/fixtures/
     wire_v2.golden) pins the exact v2 byte layout across refactors;
   - protocol level: identical seeded scenarios driven through v1 and v2 —
     a 1000-case random-cluster property over lossy simulated runs, the 7
     named fault plans from lib/fault, and a mixed-version UDP cluster —
     asserting delivery orders, receipt logs (via the canonical
     [Entity.signature] state digest, which folds the RRL/PRL contents in)
     and the convergence oracle are observationally equal.

   QCHECK_SEED=<n> dune runtest replays a reported failure (the CI
   wire-compat job prints the seed on failure). *)

module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Cluster = Repro_core.Cluster
module Simtime = Repro_sim.Simtime
module Udp = Repro_transport.Udp_cluster
module Wirestats = Repro_obs.Wirestats
module Plan = Repro_fault.Plan
module Scenario = Repro_scenario.Scenario
module Runner = Repro_scenario.Runner
module Oracle = Repro_harness.Oracle

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let keys_t = Alcotest.list (Alcotest.pair int_t int_t)

let err_t =
  Alcotest.testable Codec.pp_error (fun (a : Codec.error) b -> a = b)

let result_err name expected = function
  | Error e -> check err_t name expected e
  | Ok _ -> Alcotest.failf "%s: decoded Ok" name

(* --- Generators (the test_pdu idiom, extended with batches) --- *)

let gen_data_in ~n =
  let open QCheck.Gen in
  array_size (return n) (int_range 1 1000) >>= fun ack ->
  int_range 0 (n - 1) >>= fun src ->
  int_range 1 100000 >>= fun seq ->
  int_range 0 100 >>= fun buf ->
  string_size (int_range 0 64) >>= fun payload ->
  return
    (match Pdu.data ~cid:0 ~src ~seq ~ack ~buf ~payload with
    | Pdu.Data d -> d
    | _ -> assert false)

let gen_pdu =
  let open QCheck.Gen in
  let gen_n = int_range 1 8 in
  let gen_ack n = array_size (return n) (int_range 1 1000) in
  let gen_data = gen_n >>= fun n -> gen_data_in ~n >|= fun d -> Pdu.Data d in
  let gen_ret =
    gen_n >>= fun n ->
    gen_ack n >>= fun ack ->
    int_range 0 (n - 1) >>= fun src ->
    int_range 0 (n - 1) >>= fun lsrc ->
    int_range 1 100000 >>= fun lseq ->
    int_range 0 100 >>= fun buf ->
    return (Pdu.ret ~cid:0 ~src ~lsrc ~lseq ~ack ~buf)
  in
  let gen_ctl =
    gen_n >>= fun n ->
    gen_ack n >>= fun ack ->
    int_range 0 (n - 1) >>= fun src ->
    int_range 0 100 >>= fun buf ->
    return (Pdu.ctl ~cid:0 ~src ~ack ~buf)
  in
  oneof [ gen_data; gen_ret; gen_ctl ]

let arb_pdu = QCheck.make ~print:Pdu.to_string gen_pdu

(* Batches exercise the delta chain: consecutive items with near-identical
   ACK vectors (the steady state the encoder optimizes for) as well as
   arbitrary jumps, which stress signed residuals in both directions. *)
let gen_batch =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  int_range 1 16 >>= fun count ->
  gen_data_in ~n >>= fun first ->
  let gen_next (prev : Pdu.data) =
    oneofl [ `Near; `Far ] >>= fun kind ->
    (match kind with
    | `Near ->
      int_range 0 (n - 1) >>= fun k ->
      int_range 0 3 >>= fun bump ->
      let ack = Array.copy prev.Pdu.ack in
      ack.(k) <- ack.(k) + bump;
      return ack
    | `Far -> array_size (return n) (int_range 1 1000))
    >>= fun ack ->
    int_range 0 (n - 1) >>= fun src ->
    int_range 1 100000 >>= fun seq ->
    int_range 0 100 >>= fun buf ->
    string_size (int_range 0 32) >>= fun payload ->
    return
      (match Pdu.data ~cid:0 ~src ~seq ~ack ~buf ~payload with
      | Pdu.Data d -> d
      | _ -> assert false)
  in
  let rec go acc prev k =
    if k = 0 then return (List.rev acc)
    else gen_next prev >>= fun d -> go (d :: acc) d (k - 1)
  in
  go [ first ] first (count - 1)

let print_batch items =
  String.concat "; " (List.map (fun d -> Pdu.to_string (Pdu.Data d)) items)

let arb_batch = QCheck.make ~print:print_batch gen_batch

(* --- Round-trip properties --- *)

let prop_v2_roundtrip =
  QCheck.Test.make ~name:"v2 roundtrips all PDUs" ~count:1000 arb_pdu
    (fun pdu ->
      match Codec.decode_v2 (Codec.encode_v2 pdu) with
      | Ok [ p ] -> Pdu.equal pdu p
      | _ -> false)

let prop_v2_size =
  QCheck.Test.make ~name:"encoded_size_v2 is exact" ~count:1000 arb_pdu
    (fun pdu -> Bytes.length (Codec.encode_v2 pdu) = Codec.encoded_size_v2 pdu)

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"v2 batch roundtrips in order" ~count:1000 arb_batch
    (fun items ->
      match Codec.decode_any (Codec.encode_data_batch_v2 items) with
      | Ok pdus ->
        List.length pdus = List.length items
        && List.for_all2 (fun d p -> Pdu.equal (Pdu.Data d) p) items pdus
      | Error _ -> false)

let prop_any_dispatch =
  QCheck.Test.make ~name:"decode_any dispatches both versions" ~count:1000
    arb_pdu (fun pdu ->
      let one = function
        | Ok [ p ] -> Pdu.equal pdu p
        | _ -> false
      in
      one (Codec.decode_any (Codec.encode pdu))
      && one (Codec.decode_any (Codec.encode_v2 pdu)))

(* --- Adversarial fuzz: the v2 decoder is a total function and the
   checksum makes every damaged frame a clean [Error] --- *)

let prop_v2_truncation_total =
  QCheck.Test.make ~name:"every strict v2 prefix is a clean Error" ~count:300
    arb_batch (fun items ->
      let b = Codec.encode_data_batch_v2 items in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match Codec.decode_any (Bytes.sub b 0 len) with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let prop_v2_bitflip_detected =
  QCheck.Test.make ~name:"every single-bit v2 flip is a clean Error"
    ~count:1000
    QCheck.(pair arb_batch (int_bound 100_000))
    (fun (items, bit) ->
      let b = Codec.encode_data_batch_v2 items in
      let bit = bit mod (8 * Bytes.length b) in
      let byte = bit / 8 in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl (bit mod 8)));
      (* Even a flipped version byte falls through to the v1 decoder, whose
         own checksum then rejects it: no flipped copy may parse. *)
      match Codec.decode_any b with
      | Ok _ -> false
      | Error _ -> true
      | exception _ -> false)

let prop_v2_corruption_no_raise =
  QCheck.Test.make ~name:"corrupting any v2 byte never raises" ~count:1000
    QCheck.(triple arb_batch (int_bound 10_000) (int_bound 255))
    (fun (items, pos, value) ->
      let b = Codec.encode_data_batch_v2 items in
      Bytes.set_uint8 b (pos mod Bytes.length b) value;
      match Codec.decode_any b with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_v2_garbage_no_raise =
  QCheck.Test.make ~name:"arbitrary 0xB2 datagrams never raise" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 128))
    (fun s ->
      let b = Bytes.of_string ("\xB2" ^ s) in
      match Codec.decode_v2 b with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* --- Differential against the reference codec ---

   [Codec_ref] (test/codec_ref.ml) is the codec before the one-pass
   rewrite. The rewrite must emit the same bytes for every frame kind and
   give the same decode [result], error included, for every damaged copy
   of those frames: structural errors in stream order, then [Trailing],
   then [Bad_checksum]. *)

(* Field values of every varint length a PDU admits: up to 31 bits, the
   v1 word ([Pdu.word_bound]). *)
let gen_field lo =
  QCheck.Gen.(
    frequency
      [
        (4, int_range lo 127);
        (3, int_range lo 100_000);
        (2, int_range lo (Pdu.word_bound - 1));
      ])

let gen_wide_ack n = QCheck.Gen.(array_size (return n) (gen_field 1))

(* A few components moved by small steps either way, staying in
   [1, Pdu.word_bound). *)
let gen_near_ack (prev : int array) =
  let open QCheck.Gen in
  let n = Array.length prev in
  list_size (int_range 1 3) (pair (int_range 0 (n - 1)) (int_range (-3) 3))
  >|= fun bumps ->
  let ack = Array.copy prev in
  List.iter
    (fun (k, d) -> ack.(k) <- min (Pdu.word_bound - 1) (max 1 (ack.(k) + d)))
    bumps;
  ack

type wide = { items : Pdu.data list; ids : int64 array }

(* n up to 64 and one payload up to 1 KiB, each in one batch of four
   (the others up to 32 bytes) so the exhaustive truncation and bit-flip
   property stays fast; any trace ids. *)
let gen_wide =
  let open QCheck.Gen in
  frequency [ (3, int_range 1 8); (1, int_range 9 64) ] >>= fun n ->
  int_range 1 8 >>= fun count ->
  gen_field 0 >>= fun cid ->
  frequency [ (3, return 32); (1, return 1024) ] >>= fun big ->
  int_range 1 count >>= fun big_at ->
  let gen_item prev k =
    (match prev with
    | Some (p : Pdu.data) ->
      frequency [ (3, gen_near_ack p.ack); (1, gen_wide_ack n) ]
    | None -> gen_wide_ack n)
    >>= fun ack ->
    int_range 0 (n - 1) >>= fun src ->
    gen_field 1 >>= fun seq ->
    gen_field 0 >>= fun buf ->
    string_size (int_range 0 (if k = big_at then big else 32))
    >>= fun payload ->
    return
      (match Pdu.data ~cid ~src ~seq ~ack ~buf ~payload with
      | Pdu.Data d -> d
      | _ -> assert false)
  in
  let rec go acc prev k =
    if k = 0 then return (List.rev acc)
    else gen_item prev k >>= fun d -> go (d :: acc) (Some d) (k - 1)
  in
  go [] None count >>= fun items ->
  array_size (return count) ui64 >|= fun ids -> { items; ids }

let arb_wide =
  QCheck.make
    ~print:(fun w ->
      print_batch w.items ^ " ids="
      ^ String.concat "," (Array.to_list (Array.map Int64.to_string w.ids)))
    gen_wide

(* Every frame kind the codec emits for this batch: the v2 and traced
   batches, and per item its v1 frame, its one-PDU v2 frame, and a RET
   and a CTL built from its fields in both formats. *)
let frames_of encode_v1 encode_v2 encode_batch encode_traced w =
  let per_item (d : Pdu.data) =
    let n = Array.length d.ack in
    let ret =
      Pdu.ret ~cid:d.cid ~src:d.src ~lsrc:((d.src + 1) mod n) ~lseq:d.seq
        ~ack:d.ack ~buf:d.buf
    in
    let ctl = Pdu.ctl ~cid:d.cid ~src:d.src ~ack:d.ack ~buf:d.buf in
    List.concat_map
      (fun p -> [ encode_v1 p; encode_v2 p ])
      [ Pdu.Data d; ret; ctl ]
  in
  encode_batch w.items :: encode_traced ~ids:w.ids w.items
  :: List.concat_map per_item w.items

let frames =
  frames_of Codec.encode Codec.encode_v2 Codec.encode_data_batch_v2
    Codec.encode_data_batch_traced

let ref_frames =
  frames_of Codec_ref.encode Codec_ref.encode_v2 Codec_ref.encode_data_batch_v2
    Codec_ref.encode_data_batch_traced

let prop_ref_frames =
  QCheck.Test.make ~name:"frames are byte-identical to the reference"
    ~count:500 arb_wide (fun w ->
      List.equal Bytes.equal (frames w) (ref_frames w))

let same_result same a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error (e : Codec.error), Error f -> e = f
  | (Ok _ | Error _), _ -> false

let same_pdus a b = List.equal Pdu.equal a b

let same_traced (a, ia) (b, ib) = same_pdus a b && ia = ib

let decodes_agree buf =
  same_result same_pdus (Codec.decode_any buf) (Codec_ref.decode_any buf)
  && same_result same_traced (Codec.decode_traced buf)
       (Codec_ref.decode_traced buf)

let prop_ref_damaged =
  QCheck.Test.make
    ~name:"every truncation and bit flip decodes as the reference" ~count:50
    arb_wide (fun w ->
      List.for_all
        (fun b ->
          let len = Bytes.length b in
          let ok = ref (decodes_agree b) in
          for cut = 0 to len - 1 do
            if !ok then ok := decodes_agree (Bytes.sub b 0 cut)
          done;
          for bit = 0 to (8 * len) - 1 do
            if !ok then begin
              let f = Bytes.copy b in
              Bytes.set_uint8 f (bit / 8)
                (Bytes.get_uint8 f (bit / 8) lxor (1 lsl (bit mod 8)));
              ok := decodes_agree f
            end
          done;
          !ok)
        (* The two batch frames and the first item's six. *)
        (List.filteri (fun i _ -> i < 8) (frames w)))

(* Arbitrary bodies under every leading byte either decoder dispatches
   on, sealed with a valid checksum so decoding runs to the end: hostile
   field values (src past n, seq 0, empty vectors, stale bases) reach
   [Ok] or their own error instead of stopping at the trailer. *)
let prop_ref_sealed_garbage =
  QCheck.Test.make ~name:"sealed garbage decodes as the reference" ~count:2000
    QCheck.(
      pair (oneofl [ 0; 1; 2; 3; 0xB2; 0xB3 ])
        (pair (int_range 0 2) (string_of_size (QCheck.Gen.int_range 0 48))))
    (fun (lead, (kind, s)) ->
      let body = Bytes.of_string (Printf.sprintf "%c%c%s" (Char.chr lead) (Char.chr kind) s) in
      let b = Bytes.extend body 0 4 in
      Bytes.set_int32_be b (Bytes.length body)
        (Int32.of_int (Codec.fnv1a body ~pos:0 ~len:(Bytes.length body)));
      decodes_agree b)

(* --- Allocation pin: the 7-PDU, n = 8 batch with 64-byte payloads ---

   The reference allocates 312 minor words to encode this batch (plans of
   delta tuples, built twice) and 284 to decode it. *)

let pin_batch =
  List.init 7 (fun i ->
      let src = i + 1 in
      let ack = Array.init 8 (fun j -> if j <= src then 1001 else 1000) in
      match
        Pdu.data ~cid:0 ~src ~seq:(500 + i) ~ack ~buf:4096
          ~payload:(String.make 64 (Char.chr (65 + i)))
      with
      | Pdu.Data d -> d
      | _ -> assert false)

let minor_words_per_call f =
  let iters = 1000 in
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_alloc_pin () =
  let frame = Codec.encode_data_batch_v2 pin_batch in
  check bool_t "frame matches the reference" true
    (Bytes.equal frame (Codec_ref.encode_data_batch_v2 pin_batch));
  let enc =
    minor_words_per_call (fun () -> Codec.encode_data_batch_v2 pin_batch)
  in
  let dec = minor_words_per_call (fun () -> Codec.decode_any frame) in
  if enc > 120. then Alcotest.failf "encode allocates %.1f words (> 120)" enc;
  if dec > 284. then Alcotest.failf "decode allocates %.1f words (> 284)" dec

(* --- Hand-crafted hostile frames ---

   The encoder cannot emit an invalid frame, so each v2-specific rejection
   is reached by building the datagram byte-by-byte: LEB128 groups, then
   the FNV-1a trailer computed exactly as the codec folds it. *)

let uv v =
  let rec go v =
    if v land lnot 0x7f = 0 then [ v ]
    else (0x80 lor (v land 0x7f)) :: go (v lsr 7)
  in
  go v

let sv d = uv ((d lsl 1) lxor (d asr 62))

let frame body =
  let h =
    List.fold_left
      (fun h v -> (h lxor v) * 0x01000193 land 0xFFFFFFFF)
      0x811c9dc5 body
  in
  let b = Bytes.create (List.length body + 4) in
  List.iteri (fun i v -> Bytes.set_uint8 b i v) body;
  Bytes.set_int32_be b (List.length body) (Int32.of_int h);
  b

(* version kind cid n count base — a 2-entity batch header with base
   [|1; 1|], ready for one hand-built item. *)
let batch_header = [ 0xB2; 0x00 ] @ uv 0 @ uv 2 @ uv 1 @ uv 1 @ uv 1

let test_corrupt_varint () =
  (* A cid of ten continuation bytes overflows 63 bits mid-read. *)
  let body = [ 0xB2; 0x00 ] @ List.init 10 (fun _ -> 0xFF) in
  result_err "overflow" (Codec.Invalid "v2: varint overflow")
    (Codec.decode_v2 (frame body))

let test_non_canonical_varint () =
  (* [0x81 0x00] spells 1 with a redundant zero group: same value, second
     byte string — rejected so every frame has exactly one encoding. *)
  let body = [ 0xB2; 0x00; 0x81; 0x00 ] in
  result_err "non-canonical" (Codec.Invalid "v2: non-canonical varint")
    (Codec.decode_v2 (frame body))

let test_stale_base () =
  (* Delta -1 against base component 1 reconstructs ACK 0: the sender
     compressed against a vector this frame does not establish. *)
  let item = uv 0 @ uv 1 @ uv 0 @ uv 1 @ uv 0 @ sv (-1) @ uv 0 in
  result_err "stale base" Codec.Stale_base
    (Codec.decode_v2 (frame (batch_header @ item)))

let test_zero_delta () =
  let item = uv 0 @ uv 1 @ uv 0 @ uv 1 @ uv 0 @ sv 0 @ uv 0 in
  result_err "zero delta" (Codec.Invalid "v2: zero delta")
    (Codec.decode_v2 (frame (batch_header @ item)))

let test_bad_delta_index () =
  (* Out of range... *)
  let item = uv 0 @ uv 1 @ uv 0 @ uv 1 @ uv 2 @ sv 1 @ uv 0 in
  result_err "index out of range" (Codec.Invalid "v2: delta index")
    (Codec.decode_v2 (frame (batch_header @ item)));
  (* ... and non-ascending. *)
  let item = uv 0 @ uv 1 @ uv 0 @ uv 2 @ uv 1 @ sv 1 @ uv 1 @ sv 1 @ uv 0 in
  result_err "non-ascending" (Codec.Invalid "v2: delta index")
    (Codec.decode_v2 (frame (batch_header @ item)))

let test_empty_batch () =
  let body = [ 0xB2; 0x00 ] @ uv 0 @ uv 2 @ uv 0 in
  result_err "empty batch" (Codec.Invalid "v2: empty batch")
    (Codec.decode_v2 (frame body))

let test_bad_version () =
  (* decode_v2 demands 0xB2 outright... *)
  let v1 = Codec.encode (Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1; 1 |] ~buf:0) in
  result_err "v1 frame" (Codec.Bad_version 0x02) (Codec.decode_v2 v1);
  let b = frame [ 0xB3; 0x00 ] in
  result_err "wrong byte" (Codec.Bad_version 0xB3) (Codec.decode_v2 b);
  (* ... while decode_any routes 0xB3 to the traced decoder, where this
     bare DATA header truncates mid-batch-header. *)
  result_err "any: truncated traced" Codec.Truncated (Codec.decode_any b);
  (* A traced frame must carry a DATA batch; RET/CTL kinds are rejected. *)
  let b = frame ([ 0xB3; 0x02 ] @ uv 0) in
  result_err "traced non-data kind" (Codec.Bad_kind 0x02) (Codec.decode_any b)

let test_trailing_and_checksum () =
  let pdu = Pdu.ctl ~cid:9 ~src:0 ~ack:[| 5; 6 |] ~buf:1 in
  let b = Codec.encode_v2 pdu in
  result_err "trailing" (Codec.Trailing 2)
    (Codec.decode_v2 (Bytes.cat b (Bytes.of_string "xx")));
  let flipped = Bytes.copy b in
  let last = Bytes.length flipped - 1 in
  Bytes.set_uint8 flipped last (Bytes.get_uint8 flipped last lxor 0xFF);
  result_err "checksum" Codec.Bad_checksum (Codec.decode_v2 flipped);
  result_err "empty buffer" Codec.Truncated (Codec.decode_any Bytes.empty);
  result_err "bare version byte" Codec.Truncated
    (Codec.decode_v2 (Bytes.of_string "\xB2"))

(* --- Golden vectors: the committed fixture pins the byte layout --- *)

let golden_cases : (string * Pdu.t list) list =
  [
    ("data_single", [ Pdu.data ~cid:1 ~src:2 ~seq:3 ~ack:[| 4; 5; 6 |] ~buf:7 ~payload:"hi" ]);
    ( "data_multibyte_varints",
      [ Pdu.data ~cid:0 ~src:0 ~seq:100000 ~ack:[| 99999; 1; 300 |] ~buf:500 ~payload:"" ] );
    ( "data_batch3",
      [
        Pdu.data ~cid:0 ~src:0 ~seq:1 ~ack:[| 1; 1; 1; 1 |] ~buf:8 ~payload:"a";
        Pdu.data ~cid:0 ~src:1 ~seq:1 ~ack:[| 2; 1; 1; 1 |] ~buf:8 ~payload:"";
        Pdu.data ~cid:0 ~src:2 ~seq:1 ~ack:[| 2; 2; 2; 1 |] ~buf:8 ~payload:"abc";
      ] );
    ("ret", [ Pdu.ret ~cid:3 ~src:1 ~lsrc:2 ~lseq:44 ~ack:[| 7; 8; 9 |] ~buf:2 ]);
    ("ctl", [ Pdu.ctl ~cid:9 ~src:0 ~ack:[| 5; 6 |] ~buf:1 ]);
  ]

let golden_encode = function
  | [ p ] -> Codec.encode_v2 p
  | ps ->
    Codec.encode_data_batch_v2
      (List.map (function Pdu.Data d -> d | _ -> assert false) ps)

let hex b =
  String.concat ""
    (List.map
       (Printf.sprintf "%02x")
       (List.init (Bytes.length b) (fun i -> Bytes.get_uint8 b i)))

let unhex s =
  let b = Bytes.create (String.length s / 2) in
  String.iteri
    (fun i c ->
      let v = int_of_char c - if c >= 'a' then 87 else 48 in
      let pos = i / 2 in
      if i mod 2 = 0 then Bytes.set_uint8 b pos (v lsl 4)
      else Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lor v))
    s;
  b

(* Resolve next to the built executable ([dune runtest] materializes the
   fixture there as a stanza dep), falling back to the source tree for a
   bare [dune exec] from the workspace root. *)
let fixture_path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        "fixtures/wire_v2.golden";
      "test/fixtures/wire_v2.golden";
      "fixtures/wire_v2.golden";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_fixture () =
  let ic = open_in fixture_path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc
      else
        (match String.index_opt line ' ' with
        | Some i ->
          go ((String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1)) :: acc)
        | None -> go acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let test_golden_fixture () =
  let actual =
    List.map (fun (name, pdus) -> (name, hex (golden_encode pdus))) golden_cases
  in
  let stored = read_fixture () in
  if stored <> actual then
    Alcotest.failf
      "wire_v2.golden is out of date with the encoder. If the layout change@ \
       is intentional, replace the fixture body with:@.%s"
      (String.concat "\n"
         (List.map (fun (n, h) -> Printf.sprintf "%s %s" n h) actual));
  (* The fixture bytes also decode back to exactly the source PDUs. *)
  List.iter2
    (fun (name, pdus) (_, hexline) ->
      match Codec.decode_v2 (unhex hexline) with
      | Ok decoded ->
        check int_t (name ^ " count") (List.length pdus) (List.length decoded);
        List.iter2
          (fun p q -> check bool_t (name ^ " pdu") true (Pdu.equal p q))
          pdus decoded
      | Error e ->
        Alcotest.failf "%s: fixture does not decode: %a" name Codec.pp_error e)
    golden_cases stored

(* --- Protocol-level differential: identical seeded scenarios through v1
   and v2 must be observationally indistinguishable --- *)

type scenario = {
  sc_n : int;
  sc_seed : int;
  sc_loss : float;
  sc_submits : (int * int) list;  (* (at_ms, src) *)
}

let print_scenario sc =
  Printf.sprintf "{n=%d; seed=%d; loss=%.2f; submits=[%s]}" sc.sc_n sc.sc_seed
    sc.sc_loss
    (String.concat "; "
       (List.map (fun (at, src) -> Printf.sprintf "%d@%dms" src at) sc.sc_submits))

let gen_scenario =
  let open QCheck.Gen in
  int_range 2 4 >>= fun n ->
  int_range 0 99999 >>= fun seed ->
  oneofl [ 0.0; 0.05; 0.15; 0.3 ] >>= fun loss ->
  int_range 1 6 >>= fun k ->
  list_size (return k) (pair (int_range 0 40) (int_range 0 (n - 1)))
  >>= fun submits ->
  return { sc_n = n; sc_seed = seed; sc_loss = loss; sc_submits = submits }

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

(* Run one scenario and project everything observable: the per-entity
   delivery orders plus the canonical state digest, which folds in the
   receipt logs (RRL/PRL contents), matrix clocks and sending log. *)
let run_scenario ~wire sc =
  let base = Cluster.default_config ~n:sc.sc_n in
  let cfg =
    {
      base with
      Cluster.protocol = { base.Cluster.protocol with Config.wire };
      loss_prob = sc.sc_loss;
      seed = sc.sc_seed;
    }
  in
  let c = Cluster.create cfg in
  List.iteri
    (fun i (at, src) ->
      Cluster.submit_at c ~at:(Simtime.of_ms at) ~src (Printf.sprintf "p%d" i))
    sc.sc_submits;
  Cluster.run c ~max_events:400_000;
  ( List.init sc.sc_n (fun i -> Cluster.delivery_keys c ~entity:i),
    List.init sc.sc_n (fun i -> Entity.signature (Cluster.entity c i)) )

let prop_wire_differential =
  QCheck.Test.make ~name:"v1 and v2 runs are observationally equal"
    ~count:1000 arb_scenario (fun sc ->
      run_scenario ~wire:Config.V1 sc = run_scenario ~wire:Config.V2 sc)

(* --- The 7 named fault plans, v1 vs v2 --- *)

let co_of r =
  match r.Runner.co with
  | Some co -> co
  | None -> Alcotest.fail "CO run must carry its verdict details"

let check_outcomes_equal name r1 r2 =
  let o1 = co_of r1 and o2 = co_of r2 in
  check (Alcotest.list int_t) (name ^ ": live") o1.Runner.live o2.Runner.live;
  check int_t (name ^ ": submitted") r1.Runner.submitted r2.Runner.submitted;
  check int_t (name ^ ": expected") o1.report.Oracle.expected
    o2.report.Oracle.expected;
  check int_t (name ^ ": entities compared")
    (Array.length o1.delivery_orders)
    (Array.length o2.delivery_orders);
  Array.iteri
    (fun i order ->
      check keys_t
        (Printf.sprintf "%s: delivery order at live[%d]" name i)
        order o2.delivery_orders.(i))
    o1.delivery_orders;
  check bool_t (name ^ ": converged") o1.converged o2.converged;
  check bool_t (name ^ ": quiescent") o1.quiescent o2.quiescent;
  check bool_t (name ^ ": oracle verdict")
    (Oracle.ok o1.report) (Oracle.ok o2.report);
  check (Alcotest.array int_t)
    (name ^ ": delivered per entity")
    o1.report.Oracle.delivered_per_entity o2.report.Oracle.delivered_per_entity;
  check keys_t (name ^ ": missing") o1.report.Oracle.missing
    o2.report.Oracle.missing;
  check bool_t (name ^ ": verdict") (Runner.ok r1) (Runner.ok r2);
  (* Equality alone would also pass on two identically-broken runs; the
     plans are required to survive at this seed (as in test_fault). *)
  if not (Runner.ok r1) then
    Alcotest.failf "%s failed under both wires:@.%a" name Runner.pp r1

let test_plan_differential name () =
  let plan =
    match Plan.find name with Some p -> p | None -> Alcotest.failf "no plan %s" name
  in
  let compiled = Scenario.of_plan ~n:4 ~per_entity:6 plan in
  let run wire = Runner.run ~wire ~compiled ~seed:1 Runner.Co in
  check_outcomes_equal name (run Config.V1) (run Config.V2)

(* --- Mixed-version cluster: a rolling upgrade on a real wire --- *)

let test_udp_mixed_interop () =
  let wires = [| Config.V1; Config.V2; Config.V1; Config.V2 |] in
  let t = Udp.create ~wires ~n:4 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  check Alcotest.string "mixed label" "mixed" (Wirestats.wire (Udp.wirestats t));
  for i = 0 to 3 do
    Udp.submit t ~src:i (Printf.sprintf "m%d" i)
  done;
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:10.);
  let reference = List.sort compare (List.map (fun (d : Pdu.data) -> (d.src, d.seq)) (Udp.deliveries t ~entity:0)) in
  check int_t "all four delivered at 0" 4 (List.length reference);
  for e = 1 to 3 do
    let keys = List.sort compare (List.map (fun (d : Pdu.data) -> (d.src, d.seq)) (Udp.deliveries t ~entity:e)) in
    check keys_t (Printf.sprintf "entity %d converged" e) reference keys
  done;
  check int_t "no decode errors across versions" 0 (Udp.decode_errors t)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "wire_prop"
    [
      ( "roundtrip",
        qsuite
          [ prop_v2_roundtrip; prop_v2_size; prop_batch_roundtrip; prop_any_dispatch ] );
      ( "adversarial",
        [
          Alcotest.test_case "corrupt varint" `Quick test_corrupt_varint;
          Alcotest.test_case "non-canonical varint" `Quick test_non_canonical_varint;
          Alcotest.test_case "stale base" `Quick test_stale_base;
          Alcotest.test_case "zero delta" `Quick test_zero_delta;
          Alcotest.test_case "bad delta index" `Quick test_bad_delta_index;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "trailing + checksum" `Quick test_trailing_and_checksum;
        ]
        @ qsuite
            [
              prop_v2_truncation_total;
              prop_v2_bitflip_detected;
              prop_v2_corruption_no_raise;
              prop_v2_garbage_no_raise;
            ] );
      ( "reference",
        Alcotest.test_case "allocation pin" `Quick test_alloc_pin
        :: qsuite [ prop_ref_frames; prop_ref_damaged; prop_ref_sealed_garbage ] );
      ("golden", [ Alcotest.test_case "fixture pins layout" `Quick test_golden_fixture ]);
      ("differential", qsuite [ prop_wire_differential ]);
      ( "fault-plans",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_plan_differential name))
          Plan.names );
      ("interop", [ Alcotest.test_case "mixed-version UDP cluster" `Quick test_udp_mixed_interop ]);
    ]
