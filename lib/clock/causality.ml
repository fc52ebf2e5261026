type t = {
  n : int;
  clocks : Vector_clock.t array;
  send_stamps : (int, Vector_clock.t) Hashtbl.t;
}

let create ~n =
  {
    n;
    clocks = Array.init n (fun _ -> Vector_clock.zero ~n);
    send_stamps = Hashtbl.create 256;
  }

let send t ~entity ~msg =
  if Hashtbl.mem t.send_stamps msg then
    invalid_arg "Causality.send: message already sent";
  let clock = Vector_clock.incr t.clocks.(entity) entity in
  t.clocks.(entity) <- clock;
  Hashtbl.add t.send_stamps msg clock

let receive t ~entity ~msg =
  let stamp = Hashtbl.find t.send_stamps msg in
  let merged = Vector_clock.merge t.clocks.(entity) stamp in
  t.clocks.(entity) <- Vector_clock.incr merged entity

let local t ~entity = t.clocks.(entity) <- Vector_clock.incr t.clocks.(entity) entity

let send_stamp t msg = Hashtbl.find_opt t.send_stamps msg

let msg_precedes t p q =
  let sp = Hashtbl.find t.send_stamps p in
  let sq = Hashtbl.find t.send_stamps q in
  match Vector_clock.compare_partial sp sq with
  | Vector_clock.Before -> true
  | Vector_clock.After | Vector_clock.Equal | Vector_clock.Concurrent -> false

let msg_concurrent t p q =
  p <> q && (not (msg_precedes t p q)) && not (msg_precedes t q p)

