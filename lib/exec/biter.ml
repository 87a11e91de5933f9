type t = {
  schema : Schema.t;
  next_batch : unit -> Batch.t option;
  close : unit -> unit;
}

(* Idempotent close: operators like Limit close their input eagerly, and the
   exception-safe drains below close again in a [finally] — the second call
   must be a no-op. *)
let once close =
  let closed = ref false in
  fun () ->
    if not !closed then begin
      closed := true;
      close ()
    end

let empty schema =
  { schema; next_batch = (fun () -> None); close = (fun () -> ()) }

let of_batches schema batches =
  let pending = ref batches in
  let next_batch () =
    match !pending with
    | [] -> None
    | b :: rest ->
      pending := rest;
      Some b
  in
  { schema; next_batch; close = (fun () -> pending := []) }

(* Chunk a row array into batches of [Batch.default_rows]. *)
let of_rows schema rows =
  let n = Array.length rows in
  let pos = ref 0 in
  let next_batch () =
    if !pos >= n then None
    else begin
      let len = min Batch.default_rows (n - !pos) in
      let b = Batch.of_rows schema (Array.sub rows !pos len) in
      pos := !pos + len;
      Some b
    end
  in
  { schema; next_batch; close = (fun () -> pos := n) }

(* One page per batch, zero-copy: each batch is a view of the heap's backing
   row array (see the ownership rule in batch.mli).  A page is read when its
   batch is pulled — exactly when a row-at-a-time scan would read it, at its
   first row. *)
let scan schema heap =
  let npages = Heap_file.npages heap in
  let next_page = ref 0 in
  let next_batch () =
    if !next_page >= npages then None
    else begin
      let p = !next_page in
      let rows, lo, len = Heap_file.scan_segment heap ~page:p ~npages:1 in
      next_page := p + 1;
      Some (Batch.of_segment schema rows ~lo ~len)
    end
  in
  { schema; next_batch; close = (fun () -> next_page := npages) }

let iter f t =
  let rec loop () =
    match t.next_batch () with
    | None -> ()
    | Some b ->
      f b;
      loop ()
  in
  (* Close the source even when [f] or a producer raises mid-pipeline, so
     scans and spills under this iterator release their resources; [once]
     keeps the close single-shot when the source already closed eagerly. *)
  Fun.protect ~finally:(once t.close) loop

let iter_rows f t = iter (fun b -> Batch.iter f b) t

let to_list t =
  let acc = ref [] in
  iter (fun b -> Batch.iter (fun tup -> acc := tup :: !acc) b) t;
  List.rev !acc

let to_relation t = Relation.create t.schema (to_list t)

(* ---- lockstep operators ---- *)

type cursor = {
  src : t;
  mutable cur : Batch.t option;
  mutable pos : int;
  mutable eof : bool;
}

let cursor src = { src; cur = None; pos = 0; eof = false }

let at_boundary c =
  (not c.eof)
  && match c.cur with None -> true | Some b -> c.pos >= Batch.live b

let rec advance c =
  match c.cur with
  | Some b when c.pos < Batch.live b ->
    c.pos <- c.pos + 1;
    Some (Batch.get b (c.pos - 1))
  | _ ->
    if c.eof then None
    else (
      match c.src.next_batch () with
      | None ->
        c.eof <- true;
        c.cur <- None;
        None
      | Some b ->
        c.cur <- Some b;
        c.pos <- 0;
        advance c)

type out = { mutable rows : Tuple.t list; mutable n : int }

exception Yield

let emit o tup =
  o.rows <- tup :: o.rows;
  o.n <- o.n + 1

let touch o = if o.n > 0 then raise Yield
let pull o c = if o.n > 0 && at_boundary c then raise Yield else advance c

let lockstep schema ~step ~close =
  let o = { rows = []; n = 0 } in
  let finished = ref false in
  let next_batch () =
    o.rows <- [];
    o.n <- 0;
    (try
       while (not !finished) && o.n < Batch.default_rows do
         if not (step o) then finished := true
       done
     with Yield -> ());
    if o.n = 0 then None
    else begin
      let arr = Array.make o.n [||] in
      List.iteri (fun i t -> arr.(o.n - 1 - i) <- t) o.rows;
      o.rows <- [];
      Some (Batch.of_rows schema arr)
    end
  in
  { schema; next_batch; close }
