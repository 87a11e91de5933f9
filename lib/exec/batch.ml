type t = {
  schema : Schema.t;
  rows : Tuple.t array;
  lo : int;  (* when [sel = None], live rows are [lo .. nrows-1] *)
  nrows : int;
  sel : int array option;
}

let default_rows = 1024

let of_rows schema rows = { schema; rows; lo = 0; nrows = Array.length rows; sel = None }

(* Zero-copy, zero-allocation view of [rows.(lo) .. rows.(lo+len-1)]: the
   (shared, read-only) source array is referenced directly and the live
   range is just the [lo .. nrows-1] window. *)
let of_segment schema rows ~lo ~len =
  if lo < 0 || len < 0 || lo + len > Array.length rows then
    invalid_arg "Batch.of_segment: segment out of range";
  { schema; rows; lo; nrows = lo + len; sel = None }

let of_list schema l = of_rows schema (Array.of_list l)
let schema t = t.schema

let live t = match t.sel with None -> t.nrows - t.lo | Some s -> Array.length s

let is_empty t = live t = 0

let iter f t =
  match t.sel with
  | None ->
    for i = t.lo to t.nrows - 1 do
      f t.rows.(i)
    done
  | Some s ->
    for i = 0 to Array.length s - 1 do
      f t.rows.(s.(i))
    done

let get t i =
  match t.sel with None -> t.rows.(t.lo + i) | Some s -> t.rows.(s.(i))

let fold f init t =
  let acc = ref init in
  iter (fun tup -> acc := f !acc tup) t;
  !acc

let select p t =
  let n = live t in
  let keep = Array.make n 0 in
  let k = ref 0 in
  (match t.sel with
   | None ->
     for i = t.lo to t.nrows - 1 do
       if p t.rows.(i) then begin
         keep.(!k) <- i;
         incr k
       end
     done
   | Some s ->
     for i = 0 to Array.length s - 1 do
       let j = s.(i) in
       if p t.rows.(j) then begin
         keep.(!k) <- j;
         incr k
       end
     done);
  if !k = n && t.sel = None then t
  else { t with sel = Some (Array.sub keep 0 !k) }

(* X100-style specialized primitive: refine the selection to rows whose
   column [idx] compares [op] against the integer constant [k].  Skips the
   per-row closure tree and polymorphic compare of the generic [select];
   non-[Int] values (mixed-type data) fall back to the generic compare so
   semantics — including type errors — match the generic [select]. *)
let select_int_cmp ~op ~idx k t =
  let n = live t in
  let keep = Array.make n 0 in
  let c = ref 0 in
  let kv = Value.Int k in
  let test row =
    match Array.unsafe_get row idx with
    | Value.Int x -> (
      match op with
      | Expr.Eq -> x = k
      | Expr.Ne -> x <> k
      | Expr.Lt -> x < k
      | Expr.Le -> x <= k
      | Expr.Gt -> x > k
      | Expr.Ge -> x >= k)
    | v -> Expr.eval_cmp op v kv
  in
  (match t.sel with
   | None ->
     for i = t.lo to t.nrows - 1 do
       if test (Array.unsafe_get t.rows i) then begin
         Array.unsafe_set keep !c i;
         incr c
       end
     done
   | Some s ->
     for i = 0 to Array.length s - 1 do
       let j = Array.unsafe_get s i in
       if test (Array.unsafe_get t.rows j) then begin
         Array.unsafe_set keep !c j;
         incr c
       end
     done);
  if !c = n && t.sel = None then t
  else { t with sel = Some (Array.sub keep 0 !c) }

let map schema f t =
  let n = live t in
  let out = Array.make n [||] in
  let k = ref 0 in
  iter
    (fun tup ->
      out.(!k) <- f tup;
      incr k)
    t;
  of_rows schema out

let take n t =
  let n = max 0 n in
  if n >= live t then t
  else
    match t.sel with
    | None -> { t with sel = Some (Array.init n (fun i -> t.lo + i)) }
    | Some s -> { t with sel = Some (Array.sub s 0 n) }

let to_rows t =
  let out = Array.make (live t) [||] in
  let k = ref 0 in
  iter
    (fun tup ->
      out.(!k) <- tup;
      incr k)
    t;
  out

let to_list t = Array.to_list (to_rows t)
