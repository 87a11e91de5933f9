let by_columns ?(desc = []) schema cols =
  let resolve (c : Schema.column) =
    match Schema.index_of_column schema c with
    | Some i -> i
    | None -> (
      match Schema.find schema ~qual:c.Schema.cqual c.Schema.cname with
      | Some i -> i
      | None ->
        raise
          (Expr.Unresolved_column
             (Format.asprintf "sort key %s not in %a" (Schema.column_to_string c)
                Schema.pp schema)))
  in
  if not (List.exists Fun.id desc) then
    let idx = Array.of_list (List.map resolve cols) in
    fun a b -> Tuple.compare_at idx a b
  else begin
    let keys = Array.of_list (List.map2 (fun c d -> (resolve c, d)) cols desc) in
    fun a b ->
      let rec loop i =
        if i >= Array.length keys then 0
        else
          let idx, d = keys.(i) in
          let c = Value.compare a.(idx) b.(idx) in
          if c <> 0 then if d then -c else c else loop (i + 1)
      in
      loop 0
  end

(* k-way merge of sorted inputs via a binary min-heap over the input heads:
   O(log k) per tuple instead of the O(k) linear scan, which made high-fan-in
   merges quadratic-ish.  Ties break on input index, keeping the merge
   deterministic.  Each output row refills the heap from its own input
   before it is emitted, so a spilled run's next page is read exactly when
   its first row is needed; {!Biter.lockstep} starts a new output batch at
   every such read. *)
let merge schema compare (inputs : Biter.t list) =
  let arr = Array.of_list (List.map Biter.cursor inputs) in
  let k = Array.length arr in
  let heap_tup = Array.make (max k 1) [||] in
  let heap_src = Array.make (max k 1) 0 in
  let size = ref 0 in
  let less i j =
    let c = compare heap_tup.(i) heap_tup.(j) in
    if c <> 0 then c < 0 else heap_src.(i) < heap_src.(j)
  in
  let swap i j =
    let t = heap_tup.(i) and s = heap_src.(i) in
    heap_tup.(i) <- heap_tup.(j);
    heap_src.(i) <- heap_src.(j);
    heap_tup.(j) <- t;
    heap_src.(j) <- s
  in
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less i p then begin
        swap i p;
        sift_up p
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !size && less l !m then m := l;
    if r < !size && less r !m then m := r;
    if !m <> i then begin
      swap i !m;
      sift_down !m
    end
  in
  Array.iteri
    (fun i c ->
      match Biter.advance c with
      | Some t ->
        heap_tup.(!size) <- t;
        heap_src.(!size) <- i;
        incr size;
        sift_up (!size - 1)
      | None -> ())
    arr;
  let step o =
    !size > 0
    && begin
      let tup = heap_tup.(0) and src = heap_src.(0) in
      (match Biter.pull o arr.(src) with
       | Some t ->
         heap_tup.(0) <- t;
         sift_down 0
       | None ->
         decr size;
         heap_tup.(0) <- heap_tup.(!size);
         heap_src.(0) <- heap_src.(!size);
         heap_tup.(!size) <- [||];
         if !size > 0 then sift_down 0);
      Biter.emit o tup;
      true
    end
  in
  let close () = List.iter (fun (b : Biter.t) -> b.Biter.close ()) inputs in
  Biter.lockstep schema ~step ~close

(* External sort: buffer [work_mem] pages of input, spill each full buffer
   as a sorted run, then merge with fan-in [work_mem - 1]. *)
let sort ctx ~compare (input : Biter.t) =
  let schema = input.Biter.schema in
  let work_mem = Exec_ctx.work_mem ctx in
  let page_cap = Page.capacity ~row_bytes:(Schema.byte_width schema) in
  let run_rows = max 1 (work_mem * page_cap) in
  let runs = ref [] in
  let buffer = ref [] in
  let buffered = ref 0 in
  let flush_run () =
    if !buffered > 0 then begin
      let sorted = List.sort compare !buffer in
      let heap = Exec_ctx.temp ctx schema in
      Heap_file.append_all heap sorted;
      runs := heap :: !runs;
      buffer := [];
      buffered := 0
    end
  in
  Biter.iter_rows
    (fun tup ->
      buffer := tup :: !buffer;
      incr buffered;
      if !buffered >= run_rows then flush_run ())
    input;
  if !runs = [] then
    (* Fits in memory: no spill. *)
    Biter.of_rows schema (Array.of_list (List.sort compare !buffer))
  else begin
    flush_run ();
    let fanin = max 2 (work_mem - 1) in
    let merge_runs hs = merge schema compare (List.map (Biter.scan schema) hs) in
    let rec merge_passes runs =
      if List.length runs <= fanin then runs
      else begin
        let rec take n = function
          | [] -> ([], [])
          | x :: rest when n > 0 ->
            let batch, remaining = take (n - 1) rest in
            (x :: batch, remaining)
          | l -> ([], l)
        in
        let rec pass acc = function
          | [] -> List.rev acc
          | runs ->
            let batch, rest = take fanin runs in
            let out = Exec_ctx.temp ctx schema in
            Biter.iter_rows
              (fun t -> ignore (Heap_file.append out t))
              (merge_runs batch);
            List.iter (fun h -> Exec_ctx.drop ctx h) batch;
            pass (out :: acc) rest
        in
        merge_passes (pass [] runs)
      end
    in
    let final_runs = merge_passes (List.rev !runs) in
    let merged = merge_runs final_runs in
    {
      merged with
      Biter.close =
        (fun () ->
          merged.Biter.close ();
          List.iter (fun h -> Exec_ctx.drop ctx h) final_runs);
    }
  end
