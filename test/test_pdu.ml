module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let mk_data ?(cid = 0) ?(src = 0) ?(seq = 1) ?(ack = [| 1; 1; 1 |]) ?(buf = 8)
    ?(payload = "hello") () =
  Pdu.data ~cid ~src ~seq ~ack ~buf ~payload

(* --- Constructors --- *)

let test_data_fields () =
  match mk_data ~src:1 ~seq:3 ~payload:"xy" () with
  | Pdu.Data d ->
    check int_t "src" 1 d.src;
    check int_t "seq" 3 d.seq;
    check Alcotest.string "payload" "xy" d.payload;
    check (Alcotest.pair int_t int_t) "key" (1, 3) (Pdu.key d);
    check bool_t "not confirmation" false (Pdu.is_confirmation d)
  | Pdu.Ret _ | Pdu.Ctl _ -> Alcotest.fail "wrong kind"

let test_data_confirmation () =
  match mk_data ~payload:"" () with
  | Pdu.Data d -> check bool_t "confirmation" true (Pdu.is_confirmation d)
  | Pdu.Ret _ | Pdu.Ctl _ -> Alcotest.fail "wrong kind"

let test_data_validation () =
  Alcotest.check_raises "seq 0" (Invalid_argument "Pdu.data: seq must be >= 1")
    (fun () -> ignore (mk_data ~seq:0 ()));
  Alcotest.check_raises "src range" (Invalid_argument "Pdu.data: src out of range")
    (fun () -> ignore (mk_data ~src:3 ()));
  Alcotest.check_raises "empty ack" (Invalid_argument "Pdu.data: empty ack vector")
    (fun () -> ignore (mk_data ~ack:[||] ()));
  Alcotest.check_raises "ack below 1" (Invalid_argument "Pdu.data: ack below 1")
    (fun () -> ignore (mk_data ~ack:[| 1; 0; 1 |] ()))

(* Every field must fit the v1 layout. The largest values are accepted;
   one more is refused at construction instead of truncated on the wire
   (or, under v2, written as a frame its own decoder rejects: the ACK
   pair below). *)
let test_v1_bounds () =
  let edge = Pdu.word_bound - 1 and over = Pdu.word_bound in
  ignore (mk_data ~cid:edge ~seq:edge ~buf:edge ~ack:[| edge; 1; edge |] ());
  ignore (Pdu.ret ~cid:edge ~src:0 ~lsrc:1 ~lseq:edge ~ack:[| 1; edge |] ~buf:edge);
  let raises what msg f = Alcotest.check_raises what (Invalid_argument msg) f in
  raises "ack" "Pdu.data: ack exceeds 31 bits" (fun () ->
      ignore (mk_data ~ack:[| 1; 1 + (1 lsl 61) |] ()));
  raises "cid" "Pdu.data: cid exceeds 31 bits" (fun () ->
      ignore (mk_data ~cid:over ()));
  raises "seq" "Pdu.data: seq exceeds 31 bits" (fun () ->
      ignore (mk_data ~seq:over ()));
  raises "buf" "Pdu.ctl: buf exceeds 31 bits" (fun () ->
      ignore (Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1 |] ~buf:over));
  raises "lseq" "Pdu.ret: lseq exceeds 31 bits" (fun () ->
      ignore (Pdu.ret ~cid:0 ~src:0 ~lsrc:0 ~lseq:over ~ack:[| 1 |] ~buf:0));
  raises "vector length" "Pdu.data: ack vector too long" (fun () ->
      ignore (mk_data ~ack:(Array.make (1 lsl 16) 1) ()))

let test_data_ack_copied () =
  let ack = [| 1; 1; 1 |] in
  match mk_data ~ack () with
  | Pdu.Data d ->
    ack.(0) <- 99;
    check int_t "insulated" 1 d.ack.(0)
  | Pdu.Ret _ | Pdu.Ctl _ -> Alcotest.fail "wrong kind"

let test_ret_fields () =
  match Pdu.ret ~cid:1 ~src:2 ~lsrc:0 ~lseq:5 ~ack:[| 4; 1; 3 |] ~buf:7 with
  | Pdu.Ret r ->
    check int_t "lsrc" 0 r.lsrc;
    check int_t "lseq" 5 r.lseq;
    check int_t "lower bound from ack" 4 r.ack.(r.lsrc)
  | Pdu.Data _ | Pdu.Ctl _ -> Alcotest.fail "wrong kind"

let test_ret_validation () =
  Alcotest.check_raises "lsrc range" (Invalid_argument "Pdu.ret: lsrc out of range")
    (fun () -> ignore (Pdu.ret ~cid:0 ~src:0 ~lsrc:5 ~lseq:1 ~ack:[| 1; 1 |] ~buf:0))

let test_ctl_fields () =
  match Pdu.ctl ~cid:0 ~src:1 ~ack:[| 2; 3 |] ~buf:4 with
  | Pdu.Ctl c ->
    check int_t "src" 1 c.src;
    check int_t "buf" 4 c.buf
  | Pdu.Data _ | Pdu.Ret _ -> Alcotest.fail "wrong kind"

let test_accessors () =
  let d = mk_data ~src:2 () in
  check int_t "cluster size" 3 (Pdu.cluster_size d);
  check int_t "src" 2 (Pdu.src d)

let test_equal () =
  let a = mk_data () and b = mk_data () in
  check bool_t "equal" true (Pdu.equal a b);
  check bool_t "differs payload" false (Pdu.equal a (mk_data ~payload:"z" ()));
  check bool_t "kind differs" false
    (Pdu.equal a (Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1; 1; 1 |] ~buf:8))

let test_pp () =
  let s = Pdu.to_string (mk_data ()) in
  check bool_t "pp nonempty" true (String.length s > 5)

(* --- Codec --- *)

let roundtrip pdu =
  match Codec.decode (Codec.encode pdu) with
  | Ok decoded -> Pdu.equal pdu decoded
  | Error _ -> false

let test_codec_roundtrip_data () =
  check bool_t "data" true (roundtrip (mk_data ()));
  check bool_t "empty payload" true (roundtrip (mk_data ~payload:"" ()));
  check bool_t "big fields" true
    (roundtrip (mk_data ~cid:77 ~seq:100000 ~ack:[| 99999; 1; 12 |] ~buf:500 ()))

let test_codec_roundtrip_ret () =
  check bool_t "ret" true
    (roundtrip (Pdu.ret ~cid:3 ~src:1 ~lsrc:2 ~lseq:44 ~ack:[| 7; 8; 9 |] ~buf:2))

let test_codec_roundtrip_ctl () =
  check bool_t "ctl" true (roundtrip (Pdu.ctl ~cid:9 ~src:0 ~ack:[| 5; 6 |] ~buf:1))

let test_codec_encoded_size_matches () =
  List.iter
    (fun pdu ->
      check int_t "size" (Bytes.length (Codec.encode pdu)) (Codec.encoded_size pdu))
    [
      mk_data ();
      mk_data ~payload:"" ();
      Pdu.ret ~cid:0 ~src:0 ~lsrc:1 ~lseq:2 ~ack:[| 1; 1 |] ~buf:0;
      Pdu.ctl ~cid:0 ~src:0 ~ack:[| 1 |] ~buf:0;
    ]

let test_codec_header_linear_in_n () =
  (* The paper's §5 claim: PDU length is O(n). *)
  let h n = Codec.header_size ~kind:`Data ~n in
  check int_t "delta is 4 bytes per entity" 4 (h 6 - h 5);
  check int_t "delta is uniform" (h 10 - h 9) (h 3 - h 2)

let test_codec_truncated () =
  let b = Codec.encode (mk_data ()) in
  let short = Bytes.sub b 0 (Bytes.length b - 3) in
  check bool_t "truncated" true (Codec.decode short = Error Codec.Truncated)

let test_codec_bad_kind () =
  let b = Codec.encode (mk_data ()) in
  Bytes.set_uint8 b 0 9;
  check bool_t "bad kind" true (Codec.decode b = Error (Codec.Bad_kind 9))

let test_codec_trailing () =
  let b = Codec.encode (mk_data ()) in
  let padded = Bytes.cat b (Bytes.of_string "xx") in
  check bool_t "trailing" true (Codec.decode padded = Error (Codec.Trailing 2))

let test_codec_empty_buffer () =
  check bool_t "empty" true (Codec.decode Bytes.empty = Error Codec.Truncated)

let test_codec_golden_bytes () =
  (* Byte-exact layout: changing the wire format must be a conscious act. *)
  let pdu = Pdu.data ~cid:1 ~src:2 ~seq:3 ~ack:[| 4; 5; 6 |] ~buf:7 ~payload:"hi" in
  let hex b =
    String.concat "" (List.map (Printf.sprintf "%02x") (List.init (Bytes.length b)
      (fun i -> Bytes.get_uint8 b i)))
  in
  check Alcotest.string "DT golden"
    "0000000001000200000003000000070003000000040000000500000006000000026869d22b422f"
    (* kind cid src seq buf n ack*3 len payload cksum *)
    (hex (Codec.encode pdu))

let test_codec_pp_error () =
  let s = Format.asprintf "%a" Codec.pp_error (Codec.Bad_kind 3) in
  check bool_t "nonempty" true (String.length s > 0)

let gen_pdu =
  let open QCheck.Gen in
  let gen_ack n = array_size (return n) (int_range 1 1000) in
  let gen_n = int_range 1 8 in
  let gen_data =
    gen_n >>= fun n ->
    gen_ack n >>= fun ack ->
    int_range 0 (n - 1) >>= fun src ->
    int_range 1 100000 >>= fun seq ->
    int_range 0 100 >>= fun buf ->
    string_size (int_range 0 64) >>= fun payload ->
    return (Pdu.data ~cid:0 ~src ~seq ~ack ~buf ~payload)
  in
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

(* PDUs whose fields sit at the bounds' edges: every field 0/1, the
   largest admitted value or in between; up to 8 components, or the
   longest vector v1 holds. *)
let gen_edge_pdu =
  let open QCheck.Gen in
  let top = Pdu.word_bound - 1 in
  let field lo = frequency [ (1, return lo); (2, return top); (1, int_range lo top) ] in
  frequency [ (8, int_range 1 8); (1, return ((1 lsl 16) - 1)) ] >>= fun n ->
  array_size (return n) (field 1) >>= fun ack ->
  frequency [ (1, return 0); (1, return (n - 1)) ] >>= fun src ->
  field 0 >>= fun cid ->
  field 1 >>= fun seq ->
  field 0 >>= fun buf ->
  oneofl
    [
      Pdu.data ~cid ~src ~seq ~ack ~buf ~payload:"x";
      Pdu.ret ~cid ~src ~lsrc:(n - 1 - src) ~lseq:seq ~ack ~buf;
      Pdu.ctl ~cid ~src ~ack ~buf;
    ]

let prop_edges_roundtrip_both_wires =
  QCheck.Test.make ~name:"bound-edge PDUs roundtrip under v1 and v2" ~count:300
    (QCheck.make ~print:Pdu.to_string gen_edge_pdu) (fun pdu ->
      let sent, frame =
        match pdu with
        | Pdu.Data d ->
          (* After a batch-mate at the other extreme, so the ACK deltas
             are as wide as the bound allows. *)
          let low = { d with Pdu.ack = Array.map (fun _ -> 1) d.ack } in
          ([ Pdu.Data low; pdu ], Codec.encode_data_batch_v2 [ low; d ])
        | Pdu.Ret _ | Pdu.Ctl _ -> ([ pdu ], Codec.encode_v2 pdu)
      in
      roundtrip pdu
      &&
      match Codec.decode_v2 frame with
      | Ok back ->
        List.length back = List.length sent && List.for_all2 Pdu.equal sent back
      | Error _ -> false)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips all PDUs" ~count:500 arb_pdu roundtrip

let prop_codec_size =
  QCheck.Test.make ~name:"encoded_size is exact" ~count:200 arb_pdu (fun pdu ->
      Bytes.length (Codec.encode pdu) = Codec.encoded_size pdu)

(* Robustness: the decoder is a total function. Malformed input — any
   truncation, any byte corruption, arbitrary garbage — must come back as
   [Error], never as an exception: a hostile or damaged wire must not be
   able to kill an entity. *)

let prop_codec_truncation_total =
  QCheck.Test.make ~name:"every strict prefix is a clean Error" ~count:200
    arb_pdu (fun pdu ->
      let b = Codec.encode pdu in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match Codec.decode (Bytes.sub b 0 len) with
        | Ok _ -> ok := false
        | Error _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let prop_codec_corruption_no_raise =
  QCheck.Test.make ~name:"corrupting any byte never raises" ~count:500
    QCheck.(triple arb_pdu (int_bound 10_000) (int_bound 255))
    (fun (pdu, pos, value) ->
      let b = Codec.encode pdu in
      Bytes.set_uint8 b (pos mod Bytes.length b) value;
      match Codec.decode b with Ok _ | Error _ -> true | exception _ -> false)

let prop_codec_bitflip_detected =
  QCheck.Test.make ~name:"every single-bit flip is a clean Error" ~count:500
    QCheck.(pair arb_pdu (int_bound 100_000))
    (fun (pdu, bit) ->
      let b = Codec.encode pdu in
      let bit = bit mod (8 * Bytes.length b) in
      let byte = bit / 8 in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lxor (1 lsl (bit mod 8)));
      (* The FNV-1a trailer covers the whole body, so no flipped copy may
         parse as a (different) valid PDU. *)
      match Codec.decode b with Ok _ -> false | Error _ -> true | exception _ -> false)

let prop_codec_garbage_no_raise =
  QCheck.Test.make ~name:"arbitrary bytes never raise" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 128))
    (fun s ->
      match Codec.decode (Bytes.of_string s) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "pdu"
    [
      ( "constructors",
        [
          Alcotest.test_case "data fields" `Quick test_data_fields;
          Alcotest.test_case "confirmation" `Quick test_data_confirmation;
          Alcotest.test_case "validation" `Quick test_data_validation;
          Alcotest.test_case "v1 bounds" `Quick test_v1_bounds;
          Alcotest.test_case "ack copied" `Quick test_data_ack_copied;
          Alcotest.test_case "ret fields" `Quick test_ret_fields;
          Alcotest.test_case "ret validation" `Quick test_ret_validation;
          Alcotest.test_case "ctl fields" `Quick test_ctl_fields;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip data" `Quick test_codec_roundtrip_data;
          Alcotest.test_case "roundtrip ret" `Quick test_codec_roundtrip_ret;
          Alcotest.test_case "roundtrip ctl" `Quick test_codec_roundtrip_ctl;
          Alcotest.test_case "encoded size" `Quick test_codec_encoded_size_matches;
          Alcotest.test_case "header O(n)" `Quick test_codec_header_linear_in_n;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "bad kind" `Quick test_codec_bad_kind;
          Alcotest.test_case "trailing" `Quick test_codec_trailing;
          Alcotest.test_case "empty" `Quick test_codec_empty_buffer;
          Alcotest.test_case "golden bytes" `Quick test_codec_golden_bytes;
          Alcotest.test_case "pp error" `Quick test_codec_pp_error;
        ]
        @ qsuite
            [
              prop_codec_roundtrip;
              prop_edges_roundtrip_both_wires;
              prop_codec_size;
              prop_codec_truncation_total;
              prop_codec_corruption_no_raise;
              prop_codec_bitflip_detected;
              prop_codec_garbage_no_raise;
            ] );
    ]
