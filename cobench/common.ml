(* Clocks, sample buffers and payload framing shared by the workloads. *)

let now_s = Repro_util.Monoclock.now_s
let now_ns () = Int64.to_int (Repro_util.Monoclock.now_ns ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Resident set of this process (VmRSS), in MB; nan off Linux. *)
let rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
    let value = ref nan in
    List.iter
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmRSS"; v ] ->
          let kb = String.trim v in
          let kb = String.sub kb 0 (String.index kb ' ') in
          value := float_of_string kb /. 1024.
        | _ -> ())
      (String.split_on_char '\n' status);
    !value

(* Growable float buffer: latency samples are recorded on the delivery
   path, so appending must not allocate per sample. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) 0. in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  (* Nearest-rank percentile, [q] in [0,100]; nan when empty. *)
  let percentile t q =
    if t.len = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.len in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int t.len)) in
      s.(max 0 (min (t.len - 1) (rank - 1)))
    end
end

let median xs =
  let b = Fbuf.create () in
  List.iter (Fbuf.add b) xs;
  Fbuf.percentile b 50.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Every application message is a 64-byte payload whose first six bytes
   name its source and its index in that source's stream, so the
   correctness gate and the latency stamps can identify a delivered PDU
   without a lookup table. *)
let payload_size = 64

let make_payload ~src ~idx =
  let b = Bytes.make payload_size 'm' in
  Bytes.set_uint16_be b 0 src;
  Bytes.set_int32_be b 2 (Int32.of_int idx);
  Bytes.unsafe_to_string b

let payload_src p = String.get_uint16_be p 0
let payload_idx p = Int32.to_int (String.get_int32_be p 2)

let payloads ~sources ~per_source =
  Array.init sources (fun src ->
      Array.init per_source (fun idx -> make_payload ~src ~idx))
