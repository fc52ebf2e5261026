(* Column minima are the protocol's hottest derived quantity (minAL/minPAL
   gate every PACK and ACK decision), so they are cached: [colmin.(k)] holds
   the last computed minimum of column [k] and [dirty.(k)] marks it stale.
   A cell update can only change the minimum if it touches a cell currently
   AT the minimum (monotone raises never lower it below colmin), so queries
   are O(1) until the minimal cell itself moves — then one O(n) rescan. *)
type t = {
  n : int;
  cells : int array array;
  colmin : int array;
  dirty : bool array;
}

let create ~n ~init =
  if n <= 0 then invalid_arg "Matrix_clock.create: n must be > 0";
  {
    n;
    cells = Array.init n (fun _ -> Array.make n init);
    colmin = Array.make n init;
    dirty = Array.make n false;
  }

let size m = m.n

let get m ~row ~col = m.cells.(row).(col)

let set m ~row ~col v =
  m.cells.(row).(col) <- v;
  m.dirty.(col) <- true

let raise_to m ~row ~col v =
  let cur = m.cells.(row).(col) in
  if v > cur then begin
    m.cells.(row).(col) <- v;
    if (not m.dirty.(col)) && cur = m.colmin.(col) then m.dirty.(col) <- true
  end

let set_row m ~row values =
  if Array.length values <> m.n then
    invalid_arg "Matrix_clock.set_row: length mismatch";
  for col = 0 to m.n - 1 do
    raise_to m ~row ~col values.(col)
  done

let row m i = Array.copy m.cells.(i)

let col_min m k =
  if m.dirty.(k) then begin
    let acc = ref m.cells.(0).(k) in
    for j = 1 to m.n - 1 do
      if m.cells.(j).(k) < !acc then acc := m.cells.(j).(k)
    done;
    m.colmin.(k) <- !acc;
    m.dirty.(k) <- false
  end;
  m.colmin.(k)

let col_min_all m = Array.init m.n (col_min m)

let remap m ~n ~init ~map =
  if n <= 0 then invalid_arg "Matrix_clock.remap: n must be > 0";
  let old_of = Array.init n map in
  Array.iter
    (function
      | Some j when j < 0 || j >= m.n ->
        invalid_arg "Matrix_clock.remap: map index out of range"
      | Some _ | None -> ())
    old_of;
  let cell r c =
    match (old_of.(r), old_of.(c)) with
    | Some r', Some c' -> m.cells.(r').(c')
    | (Some _ | None), _ -> init
  in
  let out = create ~n ~init in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      set out ~row:r ~col:c (cell r c)
    done
  done;
  out

let copy m =
  {
    n = m.n;
    cells = Array.map Array.copy m.cells;
    colmin = Array.copy m.colmin;
    dirty = Array.copy m.dirty;
  }

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun r ->
      Format.fprintf ppf "[%s]@,"
        (String.concat " " (Array.to_list (Array.map string_of_int r))))
    m.cells;
  Format.fprintf ppf "@]"
