module Tuple_key = struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t
end

module TH = Hashtbl.Make (Tuple_key)

module Value_key = struct
  type t = Value.t

  let equal a b = Value.compare a b = 0

  (* Cheaper than {!Value.hash} on the dominant [Int] case (no intermediate
     tuple allocation), but still consistent with [equal]: an [Int] and the
     integral [Float] it equals hash identically. *)
  let hash = function
    | Value.Int i -> Hashtbl.hash i
    | Value.Float f when Float.is_integer f && Float.abs f < 1e18 ->
      Hashtbl.hash (int_of_float f)
    | v -> Value.hash v
end

(* Value-keyed table for single-column keys: group-by and equi-join. *)
module VH = Hashtbl.Make (Value_key)

type engine = [ `Batch ]

let compile_preds schema preds =
  match Expr.conjoin preds with
  | None -> fun _ -> true
  | Some p -> Expr.compile_pred schema p

let swap_cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* Batch filter compiler: one selection kernel per conjunct.  The common
   post-pushdown shape [col <cmp> int-const] gets the vectorized primitive
   ({!Batch.select_int_cmp}); anything else runs the generic compiled
   predicate per live row.  Conjuncts are applied in order, matching
   [Expr]'s short-circuiting [And] semantics. *)
let compile_batch_preds schema preds : (Batch.t -> Batch.t) list =
  List.concat_map Expr.conjuncts preds
  |> List.map (fun p ->
         match p with
         | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) ->
           let idx = Expr.resolve_column schema c in
           fun b -> Batch.select_int_cmp ~op ~idx k b
         | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) ->
           let idx = Expr.resolve_column schema c in
           let op = swap_cmp op in
           fun b -> Batch.select_int_cmp ~op ~idx k b
         | p ->
           let f = Expr.compile_pred schema p in
           fun b -> Batch.select f b)

let resolve_all schema cols =
  Array.of_list (List.map (Expr.resolve_column schema) cols)

let compare_keys a b =
  let n = Array.length a in
  let rec loop i =
    if i >= n then 0
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* ---- the group-by kernel ----

   One accumulator implementation serves serial hash grouping, parallel
   partial aggregation and sort grouping.  A group's cell is a plain
   [int array] while every aggregate is an int COUNT/SUM (the hot loop
   allocates nothing); a row that does not fit (a non-Int SUM argument,
   which [Value.add] would promote to Float) upgrades just that group to
   generic [Aggregate.state]s rebuilt from its accumulators, so results are
   identical either way. *)

type int_agg = ICount | ISum of int  (* ISum carries the column index *)

type cell = Fast of int array | Slow of Aggregate.state array

type agg_spec = {
  aggs : Aggregate.t array;
  args : (Tuple.t -> Value.t option) array;
  ia : int_agg array option;  (* [Some] when every aggregate is int COUNT/SUM *)
}

let agg_spec schema (aggs : Aggregate.t list) =
  let int_agg (a : Aggregate.t) =
    match a.Aggregate.func, a.Aggregate.arg with
    | Aggregate.Count_star, None -> Some ICount
    | Aggregate.Count, Some (Expr.Col _) -> Some ICount
    | Aggregate.Sum, Some (Expr.Col c)
      when Expr.type_of (Expr.Col c) = Datatype.Int ->
      Some (ISum (Expr.resolve_column schema c))
    | _ -> None
  in
  let ks = List.filter_map int_agg aggs in
  let arg (a : Aggregate.t) =
    match a.Aggregate.arg with
    | None -> fun _ -> None
    | Some e ->
      let f = Expr.compile schema e in
      fun tup -> Some (f tup)
  in
  {
    aggs = Array.of_list aggs;
    args = Array.of_list (List.map arg aggs);
    ia = (if List.length ks = List.length aggs then Some (Array.of_list ks) else None);
  }

let int_row_fits ia tup =
  let fits = ref true and j = ref 0 in
  while !fits && !j < Array.length ia do
    (match Array.unsafe_get ia !j with
     | ICount -> ()
     | ISum idx -> (
       match Array.unsafe_get tup idx with Value.Int _ -> () | _ -> fits := false));
    incr j
  done;
  !fits

let int_apply ia acc tup =
  for j = 0 to Array.length ia - 1 do
    match Array.unsafe_get ia j with
    | ICount -> Array.unsafe_set acc j (Array.unsafe_get acc j + 1)
    | ISum idx -> (
      match Array.unsafe_get tup idx with
      | Value.Int x -> Array.unsafe_set acc j (Array.unsafe_get acc j + x)
      | _ -> assert false)
  done

let slow_apply spec st tup =
  for j = 0 to Array.length st - 1 do
    Array.unsafe_set st j
      (Aggregate.step (Array.unsafe_get st j) ((Array.unsafe_get spec.args j) tup))
  done

let states spec = function
  | Slow st -> st
  | Fast acc ->
    let ia = Option.get spec.ia in
    Array.mapi
      (fun j x ->
        match ia.(j) with
        | ICount -> Aggregate.count_state x
        | ISum _ -> Aggregate.sum_state (Value.Int x))
      acc

let new_cell spec tup =
  match spec.ia with
  | Some ia when int_row_fits ia tup ->
    let acc = Array.make (Array.length ia) 0 in
    int_apply ia acc tup;
    Fast acc
  | _ ->
    let st =
      Array.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) spec.aggs
    in
    slow_apply spec st tup;
    Slow st

(* Fold one more row into a cell; returns the (possibly upgraded) cell. *)
let step_cell spec cell tup =
  match cell, spec.ia with
  | Fast acc, Some ia when int_row_fits ia tup ->
    int_apply ia acc tup;
    cell
  | Slow st, _ ->
    slow_apply spec st tup;
    cell
  | Fast _, _ ->
    let st = states spec cell in
    slow_apply spec st tup;
    Slow st

(* Combine two partials of one group, [a] from earlier in the stream. *)
let merge_cells spec a b =
  match a, b with
  | Fast x, Fast y -> Fast (Array.mapi (fun j v -> v + y.(j)) x)
  | _ ->
    let sa = states spec a and sb = states spec b in
    Slow (Array.mapi (fun j s -> Aggregate.merge s sb.(j)) sa)

let finish_cell key = function
  | Fast acc -> Tuple.concat key (Array.map (fun x -> Value.Int x) acc)
  | Slow st -> Tuple.concat key (Array.map Aggregate.finish st)

(* A partial table remembers each group's first row as (morsel, position):
   its rank in the serial stream.  Emitting groups by rank reproduces the
   serial first-seen order whether the table was built by one scan or
   merged from per-worker partials. *)
type entry = { mutable cell : cell; m : int; pos : int }

let rank_compare a b =
  let c = Int.compare a.m b.m in
  if c <> 0 then c else Int.compare a.pos b.pos

module Partial (H : Hashtbl.S) = struct
  let absorb spec tbl k ~m ~pos tup =
    match H.find tbl k with
    | e -> e.cell <- step_cell spec e.cell tup
    | exception Not_found -> H.add tbl k { cell = new_cell spec tup; m; pos }

  let merge spec ~into src =
    H.iter
      (fun k e ->
        match H.find_opt into k with
        | None -> H.replace into k e
        | Some e0 ->
          let a, b = if rank_compare e0 e <= 0 then (e0, e) else (e, e0) in
          H.replace into k { cell = merge_cells spec a.cell b.cell; m = a.m; pos = a.pos })
      src

  let rows tbl key_tuple =
    H.fold (fun k e acc -> (k, e) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> rank_compare a b)
    |> List.map (fun (k, e) -> finish_cell (key_tuple k) e.cell)
    |> Array.of_list
end

module PV = Partial (VH)
module PT = Partial (TH)

module type GROUPS = sig
  type t

  val create : unit -> t
  val absorb : t -> m:int -> pos:int -> Tuple.t -> unit
  val merge : into:t -> t -> unit
  val rows : t -> Tuple.t array
end

(* The kernel for one group-by: a single-column key is hashed as the value
   itself (no per-row key tuple), anything else as the projected tuple. *)
let groups spec key_idx : (module GROUPS) =
  match key_idx with
  | [| ki |] ->
    (module struct
      type t = entry VH.t

      let create () = VH.create 256
      let absorb t ~m ~pos tup = PV.absorb spec t (Array.unsafe_get tup ki) ~m ~pos tup
      let merge ~into t = PV.merge spec ~into t
      let rows t = PV.rows t (fun k -> [| k |])
    end)
  | _ ->
    (module struct
      type t = entry TH.t

      let create () = TH.create 256
      let absorb t ~m ~pos tup = PT.absorb spec t (Tuple.project_arr tup key_idx) ~m ~pos tup
      let merge ~into t = PT.merge spec ~into t
      let rows t = PT.rows t Fun.id
    end)

(* ---- equi-key index: hash-join tables and BNL block indexes ----

   Rows bucketed by their values at [build_keys], looked up with another
   row's values at [probe_keys].  Like {!groups}, a one-column key is
   hashed as the value itself and a wider one as the projected tuple.  A
   bucket lists its rows in reverse insertion order. *)

type eq_index = { add : Tuple.t -> unit; find : Tuple.t -> Tuple.t list }

let eq_index ~build_keys ~probe_keys size =
  match build_keys, probe_keys with
  | [| bk |], [| pk |] ->
    let t = VH.create size in
    let add row =
      let k = Array.unsafe_get row bk in
      VH.replace t k (row :: (try VH.find t k with Not_found -> []))
    in
    { add; find = (fun row -> try VH.find t (Array.unsafe_get row pk) with Not_found -> []) }
  | _ ->
    let t = TH.create size in
    let add row =
      let k = Tuple.project_arr row build_keys in
      TH.replace t k (row :: (try TH.find t k with Not_found -> []))
    in
    { add;
      find = (fun row -> try TH.find t (Tuple.project_arr row probe_keys) with Not_found -> []) }

let build_hash_table ~build_keys ~probe_keys build_rows =
  let index = eq_index ~build_keys ~probe_keys 1024 in
  List.iter index.add build_rows;
  index

(* Probe a batch against a read-only table: one output batch per probe
   batch with at least one match. *)
let probe_batch out_schema ~lookup ~emit ~keep pb =
  let out = ref [] in
  let n = ref 0 in
  Batch.iter
    (fun pt ->
      List.iter
        (fun bt ->
          let o = emit pt bt in
          if keep o then begin
            out := o :: !out;
            incr n
          end)
        (lookup pt))
    pb;
  if !n = 0 then None
  else begin
    let arr = Array.make !n [||] in
    List.iteri (fun i t -> arr.(!n - 1 - i) <- t) !out;
    Some (Batch.of_rows out_schema arr)
  end

(* The equality conjuncts of a BNL condition that an index on the outer
   block can answer, as (outer, inner) positions.  Columns resolve exactly
   as [compile_preds] resolves them on the joined schema; an equality
   qualifies when its columns have one datatype and lie on different sides.
   Only conjuncts before the first one that could raise a type error count,
   so skipping a pair whose keys differ is exactly [keep] returning false:
   a conjunct cannot raise when it compares only columns and constants of
   types [Value.compare] accepts together. *)
let bnl_index_keys out_schema ~outer_arity cond =
  let operand = function
    | Expr.Col c ->
      let i = Expr.resolve_column out_schema c in
      Some (Some i, (Schema.get out_schema i).Schema.cty)
    | Expr.Const v -> Some (None, Value.type_of v)
    | Expr.Binop _ -> None
  in
  let numeric t = Datatype.equal t Datatype.Int || Datatype.equal t Datatype.Float in
  let rec safe = function
    | Expr.Cmp (_, a, b) -> (
      match operand a, operand b with
      | Some (_, ta), Some (_, tb) -> Datatype.equal ta tb || (numeric ta && numeric tb)
      | _ -> false)
    | Expr.And (p, q) | Expr.Or (p, q) -> safe p && safe q
    | Expr.Not p -> safe p
  in
  let outer i = i < outer_arity in
  let key = function
    | Expr.Cmp (Expr.Eq, a, b) -> (
      match operand a, operand b with
      | Some (Some i, ta), Some (Some j, tb) when Datatype.equal ta tb && outer i <> outer j ->
        Some (if outer i then (i, j - outer_arity) else (j, i - outer_arity))
      | _ -> None)
    | _ -> None
  in
  let rec keys = function
    | c :: rest when safe c -> Option.to_list (key c) @ keys rest
    | _ -> []
  in
  keys (List.concat_map Expr.conjuncts cond)

let grace_partitions ctx build_pages =
  let work_mem = Exec_ctx.work_mem ctx in
  min 64 (max 2 ((build_pages + work_mem - 2) / (work_mem - 1)))

let part_hash nparts keys_idx t =
  (Tuple_key.hash (Tuple.project_arr t keys_idx) land max_int) mod nparts

(* Join each spilled partition pair in memory; returns all result tuples in
   probe order within each partition (partitions in index order). *)
let grace_join ctx ~nparts ~build_parts ~probe_parts ~build_keys ~probe_keys
    ~keep ~emit =
  let results = ref [] in
  for p = 0 to nparts - 1 do
    let table =
      build_hash_table ~build_keys ~probe_keys
        (List.of_seq (Heap_file.to_seq build_parts.(p)))
    in
    Seq.iter
      (fun pt ->
        List.iter
          (fun bt ->
            let out = emit pt bt in
            if keep out then results := out :: !results)
          (table.find pt))
      (Heap_file.to_seq probe_parts.(p))
  done;
  Array.iter (fun h -> Exec_ctx.drop ctx h) build_parts;
  Array.iter (fun h -> Exec_ctx.drop ctx h) probe_parts;
  List.rev !results

(* Statement-limit polling (deadline / cancellation), applied to every
   operator a guarded statement opens.  Wrapping each node — not just the
   root — keeps pipeline breakers responsive: the scan feeding a big sort or
   group polls while the breaker is still absorbing input.  Polls are
   amortized over about 128 rows, so one-row batches stay cheap. *)
let guard_biter ctx (bit : Biter.t) =
  let budget = ref 0 in
  let next_batch () =
    if !budget <= 0 then begin
      Exec_ctx.check ctx;
      budget := 128
    end;
    let r = bit.Biter.next_batch () in
    (match r with Some b -> budget := !budget - max 1 (Batch.live b) | None -> ());
    r
  in
  { bit with Biter.next_batch }

(* Open a plan node under a profile node, attributing wall time and page IO
   spent during the open itself (blocking operators — hash build, sort,
   group — drain their inputs here, before the first pull).  Records partial
   open stats even when the open raises, so aborted statements keep the work
   done so far. *)
let profiled_open ctx prof plan raw_open =
  let st = Exec_ctx.storage ctx in
  let node = Profile.enter prof (Physical.op_name plan) in
  let t0 = Unix.gettimeofday () in
  let before = Storage.io_snapshot st in
  let record () =
    let io = Storage.io_since st before in
    node.Profile.open_ms <- (Unix.gettimeofday () -. t0) *. 1000.;
    node.Profile.open_reads <- io.Buffer_pool.reads;
    node.Profile.open_writes <- io.Buffer_pool.writes;
    node.Profile.open_hits <- io.Buffer_pool.hits
  in
  match raw_open () with
  | v ->
    record ();
    Profile.leave prof;
    (node, v)
  | exception e ->
    record ();
    Profile.leave prof;
    raise e

let batch_filter kernels (bit : Biter.t) : Biter.t =
  let rec next_batch () =
    match bit.Biter.next_batch () with
    | None -> None
    | Some b ->
      let b = List.fold_left (fun b k -> k b) b kernels in
      if Batch.is_empty b then next_batch () else Some b
  in
  { bit with Biter.next_batch }

let with_filter schema preds bit =
  if preds = [] then bit else batch_filter (compile_batch_preds schema preds) bit

let index_exn tbl ~table ~column =
  match Catalog.index_on tbl column with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Executor: no index on %s.%s" table column)

(* ---- exchange segment compilation ----

   A parallel segment is the scan spine the morsel workers evaluate
   independently: heap scan -> filters -> projections -> hash-join probes.
   It compiles to one shared, domain-safe transform (the closures capture
   only immutable schemas, column indices and read-only hash tables;
   batches are immutable records), applied by each worker to the batches
   its claimed page ranges produce. *)

type segment = {
  seg_heap : Heap_file.t;
  seg_scan_schema : Schema.t;
  seg_schema : Schema.t;  (* output schema of the transform *)
  seg_fn : Batch.t -> Batch.t option;  (* [None] = morsel filtered away *)
}

exception Unsupported_segment

(* Morsel [m] covers pages [m*ppb, (m+1)*ppb): one batch worth of rows.
   Resequenced in morsel order, the morsels yield the serial scan's rows in
   the serial order. *)
let morsel_geometry heap =
  let npages = Heap_file.npages heap in
  let cap = Heap_file.page_capacity heap in
  let ppb = max 1 (Batch.default_rows / cap) in
  let n_morsels = if npages = 0 then 0 else ((npages + ppb - 1) / ppb) in
  let scan seg m =
    let p0 = m * ppb in
    let rows, lo, len =
      Heap_file.scan_segment seg.seg_heap ~page:p0 ~npages:(min ppb (npages - p0))
    in
    seg.seg_fn (Batch.of_segment seg.seg_scan_schema rows ~lo ~len)
  in
  (n_morsels, scan)

(* Pre-register [worker-<i>] profile nodes under the node currently being
   opened (the exchange), returning the callback that fills them with the
   team's counters once the workers join. *)
let worker_profile_nodes ctx ~dop =
  match Exec_ctx.profiler ctx with
  | None -> None
  | Some prof ->
    let dop = Exchange.clamp_dop dop in
    let nodes =
      Array.init dop (fun i ->
          let n = Profile.enter prof (Printf.sprintf "worker-%d" i) in
          Profile.leave prof;
          n)
    in
    Some
      (fun (stats : Exchange.wstats array) ->
        Array.iteri
          (fun i (ws : Exchange.wstats) ->
            if i < Array.length nodes then begin
              let n = nodes.(i) in
              n.Profile.rows_out <- ws.Exchange.wrows;
              n.Profile.batches <- ws.Exchange.wbatches;
              n.Profile.ms <- ws.Exchange.wms;
              n.Profile.reads <- ws.Exchange.wio.Buffer_pool.reads;
              n.Profile.writes <- ws.Exchange.wio.Buffer_pool.writes;
              n.Profile.hits <- ws.Exchange.wio.Buffer_pool.hits
            end)
          stats)

let rec open_batch ctx plan : Biter.t =
  let bit =
    match Exec_ctx.profiler ctx with
    | None -> open_raw ctx plan
    | Some prof ->
      let node, bit = profiled_open ctx prof plan (fun () -> open_raw ctx plan) in
      Profile.wrap_biter node (Exec_ctx.storage ctx) bit
  in
  if Exec_ctx.guarded ctx then guard_biter ctx bit else bit

and open_raw ctx plan : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  match plan with
  | Physical.Seq_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let schema = Schema.rename_qualifier tbl.Catalog.tschema s.alias in
    with_filter schema s.filter (Biter.scan schema tbl.Catalog.heap)
  | Physical.Index_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let idx = index_exn tbl ~table:s.table ~column:s.column in
    let schema = Schema.rename_qualifier tbl.Catalog.tschema s.alias in
    let rids = ref (Btree.search_range idx ?lo:s.lo ?hi:s.hi ()) in
    (* Every fetch touches a page, so each row is its own batch. *)
    let step o =
      match !rids with
      | [] -> false
      | rid :: rest ->
        Biter.touch o;
        rids := rest;
        Biter.emit o (Heap_file.get tbl.Catalog.heap rid);
        true
    in
    with_filter schema s.filter
      (Biter.lockstep schema ~step ~close:(fun () -> rids := []))
  | Physical.Filter f ->
    let bit = open_batch ctx f.input in
    batch_filter (compile_batch_preds bit.Biter.schema f.pred) bit
  | Physical.Project p ->
    let bit = open_batch ctx p.input in
    let fns =
      Array.of_list (List.map (fun (e, _) -> Expr.compile bit.Biter.schema e) p.cols)
    in
    let out_schema = Schema.of_columns (List.map snd p.cols) in
    let project tup = Array.map (fun f -> f tup) fns in
    let next_batch () =
      Option.map (Batch.map out_schema project) (bit.Biter.next_batch ())
    in
    { Biter.schema = out_schema; next_batch; close = bit.Biter.close }
  | Physical.Materialize m ->
    let bit = open_batch ctx m.input in
    let heap = Exec_ctx.temp ctx bit.Biter.schema in
    Biter.iter_rows (fun t -> ignore (Heap_file.append heap t)) bit;
    let out = Biter.scan bit.Biter.schema heap in
    {
      out with
      Biter.close =
        (fun () ->
          out.Biter.close ();
          Exec_ctx.drop ctx heap);
    }
  | Physical.Sort s ->
    let bit = open_batch ctx s.input in
    Xsort.sort ctx
      ~compare:(Xsort.by_columns ~desc:s.desc bit.Biter.schema s.cols)
      bit
  | Physical.Limit l ->
    let bit = open_batch ctx l.input in
    let remaining = ref l.count in
    let closed = ref false in
    (* Close the input as soon as the count is exhausted so scans under the
       Limit release temp heaps promptly; idempotent for the later close. *)
    let close_input () =
      if not !closed then begin
        closed := true;
        bit.Biter.close ()
      end
    in
    let next_batch () =
      if !remaining <= 0 then begin
        close_input ();
        None
      end
      else
        match bit.Biter.next_batch () with
        | None ->
          close_input ();
          None
        | Some b ->
          let b = Batch.take !remaining b in
          remaining := !remaining - Batch.live b;
          if !remaining <= 0 then close_input ();
          Some b
    in
    { Biter.schema = bit.Biter.schema; next_batch; close = close_input }
  | Physical.Block_nl_join j -> bnl_join ctx j.left j.right j.cond
  | Physical.Index_nl_join j ->
    index_nl_join ctx ~left:j.left ~alias:j.alias ~table:j.table ~column:j.column
      ~outer_key:j.outer_key ~cond:j.cond
  | Physical.Hash_join j ->
    hash_join ctx ~left:j.left ~right:j.right ~keys:j.keys ~cond:j.cond
      ~build_side:j.build_side
  | Physical.Merge_join j ->
    merge_join ctx ~left:j.left ~right:j.right ~keys:j.keys ~cond:j.cond
  | Physical.Hash_group g -> (
    (* Parallel partial aggregation: when the group sits on an exchange
       whose segment the workers can run, fuse scan + partials into the
       workers and merge here.  Otherwise the exchange still parallelizes
       the scan and this group consumes the resequenced stream serially. *)
    match g.Physical.input with
    | Physical.Exchange e
      when Exchange.parallel_group_ok g.Physical.aggs
           && Exchange.segment_ok e.input -> (
      match open_parallel_group ctx g ~dop:e.dop e.input with
      | bit -> bit
      | exception Unsupported_segment -> hash_group ctx g)
    | _ -> hash_group ctx g)
  | Physical.Sort_group g -> sort_group ctx g
  | Physical.Exchange e -> open_exchange ctx ~dop:e.dop e.input
  | Physical.Repartition r ->
    (* Only meaningful as a build-side marker inside an exchange segment;
       anywhere else it is a transparent pass-through. *)
    open_batch ctx r.input

(* Block nested-loop join: buffer (work_mem - 1) pages of outer tuples, then
   rescan the inner once per block.  The inner must be rescannable; a
   [Materialize] inner is spooled once and re-read per block.  When the
   condition has equality conjuncts across the two sides, each block is
   indexed on them, so an inner row meets only the outer rows with its key,
   still in block order. *)
and bnl_join ctx left right cond =
  let cat = Exec_ctx.catalog ctx in
  let lbit = open_batch ctx left in
  let rschema = Physical.schema cat right in
  let out_schema = Schema.append lbit.Biter.schema rschema in
  let keep = compile_preds out_schema cond in
  let index_keys =
    match bnl_index_keys out_schema ~outer_arity:(Schema.arity lbit.Biter.schema) cond with
    | [] -> None
    | ks -> Some (Array.of_list (List.map fst ks), Array.of_list (List.map snd ks))
  in
  let block_rows =
    let cap = Page.capacity ~row_bytes:(Schema.byte_width lbit.Biter.schema) in
    max 1 ((Exec_ctx.work_mem ctx - 1) * cap)
  in
  (* Rescannable inner: spool a Materialize once; otherwise reopen the scan.
     Reopens happen mid-pull, when no profile parent is on the stack, so
     profiling is suspended around them. *)
  let spooled = ref None in
  let reopen_right () =
    let saved = Exec_ctx.profiler ctx in
    Exec_ctx.set_profiler ctx None;
    Fun.protect
      ~finally:(fun () -> Exec_ctx.set_profiler ctx saved)
      (fun () ->
        match right with
        | Physical.Materialize m -> (
          match !spooled with
          | Some heap -> Biter.scan rschema heap
          | None ->
            let bit = open_batch ctx m.input in
            let heap = Exec_ctx.temp ctx bit.Biter.schema in
            Biter.iter_rows (fun t -> ignore (Heap_file.append heap t)) bit;
            spooled := Some heap;
            Biter.scan rschema heap)
        | Physical.Seq_scan _ | Physical.Index_scan _ -> open_batch ctx right
        | _ ->
          invalid_arg
            "Executor: BNL inner must be a scan or Materialize (planner bug)")
  in
  let outer = Biter.cursor lbit in
  let block = ref [||] in
  let index = ref None in
  let inner = ref None in
  let close_inner () =
    Option.iter (fun (bit, _) -> bit.Biter.close ()) !inner;
    inner := None
  in
  let join_row o rt =
    let join lt =
      let out = Tuple.concat lt rt in
      if keep out then Biter.emit o out
    in
    match !index with
    | None -> Array.iter join !block
    | Some ix -> List.iter join (ix.find rt)
  in
  (* Added last to first, so every bucket lists its rows in block order. *)
  let index_block () =
    Option.iter
      (fun (build_keys, probe_keys) ->
        let ix = eq_index ~build_keys ~probe_keys (Array.length !block) in
        for i = Array.length !block - 1 downto 0 do
          ix.add !block.(i)
        done;
        index := Some ix)
      index_keys
  in
  (* Output is inner-major: each inner row against the whole block. *)
  let step o =
    match !inner with
    | Some (_, ic) ->
      (match Biter.pull o ic with Some rt -> join_row o rt | None -> close_inner ());
      true
    | None ->
      Biter.touch o;
      let rec fill acc n =
        if n >= block_rows then acc
        else match Biter.advance outer with None -> acc | Some t -> fill (t :: acc) (n + 1)
      in
      block := Array.of_list (List.rev (fill [] 0));
      Array.length !block > 0
      && begin
        index_block ();
        let bit = reopen_right () in
        let ic = Biter.cursor bit in
        inner := Some (bit, ic);
        (match Biter.advance ic with Some rt -> join_row o rt | None -> close_inner ());
        true
      end
  in
  let close () =
    lbit.Biter.close ();
    close_inner ();
    Option.iter (Exec_ctx.drop ctx) !spooled
  in
  Biter.lockstep out_schema ~step ~close

(* Index nested-loop join: one index probe (and its heap fetches) per outer
   row.  The probe reads pages, so each outer row's matches form a batch. *)
and index_nl_join ctx ~left ~alias ~table ~column ~outer_key ~cond =
  let cat = Exec_ctx.catalog ctx in
  let lbit = open_batch ctx left in
  let tbl = Catalog.table_exn cat table in
  let idx = index_exn tbl ~table ~column in
  let rschema = Schema.rename_qualifier tbl.Catalog.tschema alias in
  let out_schema = Schema.append lbit.Biter.schema rschema in
  let keep = compile_preds out_schema cond in
  let key_idx = Expr.resolve_column lbit.Biter.schema outer_key in
  let outer = Biter.cursor lbit in
  let step o =
    Biter.touch o;
    match Biter.advance outer with
    | None -> false
    | Some lt ->
      List.iter
        (fun rid ->
          let out = Tuple.concat lt (Heap_file.get tbl.Catalog.heap rid) in
          if keep out then Biter.emit o out)
        (Btree.search_eq idx (Tuple.get lt key_idx));
      true
  in
  Biter.lockstep out_schema ~step ~close:lbit.Biter.close

and hash_join ctx ~left ~right ~keys ~cond ~build_side : Biter.t =
  let lbit = open_batch ctx left in
  let rbit = open_batch ctx right in
  let out_schema = Schema.append lbit.Biter.schema rbit.Biter.schema in
  let keep = compile_preds out_schema cond in
  let lkeys = resolve_all lbit.Biter.schema (List.map fst keys) in
  let rkeys = resolve_all rbit.Biter.schema (List.map snd keys) in
  let build_bit, probe_bit, build_keys, probe_keys, emit =
    match build_side with
    | `Right -> (rbit, lbit, rkeys, lkeys, fun probe build -> Tuple.concat probe build)
    | `Left -> (lbit, rbit, lkeys, rkeys, fun probe build -> Tuple.concat build probe)
  in
  let build_rows = Biter.to_list build_bit in
  let build_schema = build_bit.Biter.schema in
  let build_pages =
    Page.pages_for ~rows:(List.length build_rows)
      ~row_bytes:(Schema.byte_width build_schema)
  in
  if build_pages <= Exec_ctx.work_mem ctx then begin
    (* In-memory build; stream the probe side. *)
    let lookup = (build_hash_table ~build_keys ~probe_keys build_rows).find in
    let rec next_batch () =
      match probe_bit.Biter.next_batch () with
      | None -> None
      | Some pb -> (
        match probe_batch out_schema ~lookup ~emit ~keep pb with
        | None -> next_batch ()
        | r -> r)
    in
    { Biter.schema = out_schema; next_batch; close = probe_bit.Biter.close }
  end
  else begin
    (* Grace hash join: partition both sides to temp files, then join each
       partition pair in memory. *)
    let nparts = grace_partitions ctx build_pages in
    let build_parts =
      Array.init nparts (fun _ -> Exec_ctx.temp ctx build_schema)
    in
    List.iter
      (fun bt ->
        ignore (Heap_file.append build_parts.(part_hash nparts build_keys bt) bt))
      build_rows;
    let probe_schema = probe_bit.Biter.schema in
    let probe_parts =
      Array.init nparts (fun _ -> Exec_ctx.temp ctx probe_schema)
    in
    Biter.iter_rows
      (fun pt ->
        ignore (Heap_file.append probe_parts.(part_hash nparts probe_keys pt) pt))
      probe_bit;
    let results =
      grace_join ctx ~nparts ~build_parts ~probe_parts ~build_keys ~probe_keys
        ~keep ~emit
    in
    Biter.of_rows out_schema (Array.of_list results)
  end

(* Merge join over inputs sorted on the join keys: a row-level merge in
   lockstep over both inputs.  Each step pulls at most one row, and the
   next left row is pulled before the current one's matches are emitted. *)
and merge_join ctx ~left ~right ~keys ~cond =
  let lbit = open_batch ctx left in
  let rbit = open_batch ctx right in
  let out_schema = Schema.append lbit.Biter.schema rbit.Biter.schema in
  let keep = compile_preds out_schema cond in
  let lidx = resolve_all lbit.Biter.schema (List.map fst keys) in
  let ridx = resolve_all rbit.Biter.schema (List.map snd keys) in
  let lc = Biter.cursor lbit and rc = Biter.cursor rbit in
  let lt = ref (Biter.advance lc) in
  let rt = ref (Biter.advance rc) in
  (* The right rows of the last key seen on both sides. *)
  let group = ref None in
  (* Right rows (reversed) of a key still being gathered. *)
  let collecting = ref None in
  let step o =
    match !collecting with
    | Some (rk, acc) ->
      let r = Biter.pull o rc in
      rt := r;
      (match r with
       | Some r when compare_keys (Tuple.project_arr r ridx) rk = 0 ->
         collecting := Some (rk, r :: acc)
       | _ ->
         group := Some (rk, List.rev acc);
         collecting := None);
      true
    | None -> (
      match !lt with
      | None -> false
      | Some l -> (
        let lk = Tuple.project_arr l lidx in
        match !group with
        | Some (gk, gts) when compare_keys lk gk = 0 ->
          lt := Biter.pull o lc;
          List.iter
            (fun r ->
              let out = Tuple.concat l r in
              if keep out then Biter.emit o out)
            gts;
          true
        | _ -> (
          match !rt with
          | None -> false
          | Some r ->
            let rk = Tuple.project_arr r ridx in
            let c = compare_keys lk rk in
            if c < 0 then lt := Biter.pull o lc
            else if c > 0 then rt := Biter.pull o rc
            else collecting := Some (rk, [ r ]);
            true)))
  in
  let close () =
    lbit.Biter.close ();
    rbit.Biter.close ()
  in
  Biter.lockstep out_schema ~step ~close

and hash_group ctx (g : Physical.group) : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let bit = open_batch ctx g.Physical.input in
  let in_schema = bit.Biter.schema in
  let out_schema = Physical.schema cat (Physical.Hash_group g) in
  let (module G) =
    groups (agg_spec in_schema g.Physical.aggs) (resolve_all in_schema g.Physical.keys)
  in
  let t = G.create () in
  let pos = ref 0 in
  Biter.iter_rows
    (fun tup ->
      G.absorb t ~m:0 ~pos:!pos tup;
      incr pos)
    bit;
  with_filter out_schema g.Physical.having (Biter.of_rows out_schema (G.rows t))

(* Sort group: input sorted on the keys; a group is emitted when the first
   row of the next one arrives. *)
and sort_group ctx (g : Physical.group) =
  let cat = Exec_ctx.catalog ctx in
  let bit = open_batch ctx g.Physical.input in
  let in_schema = bit.Biter.schema in
  let out_schema = Physical.schema cat (Physical.Sort_group g) in
  let key_idx = resolve_all in_schema g.Physical.keys in
  let spec = agg_spec in_schema g.Physical.aggs in
  let input = Biter.cursor bit in
  let current = ref None in
  let step o =
    match Biter.pull o input, !current with
    | None, cur ->
      Option.iter (fun (k, cell) -> Biter.emit o (finish_cell k cell)) cur;
      current := None;
      false
    | Some tup, Some (gk, cell) ->
      let k = Tuple.project_arr tup key_idx in
      if compare_keys k gk = 0 then current := Some (gk, step_cell spec cell tup)
      else begin
        Biter.emit o (finish_cell gk cell);
        current := Some (k, new_cell spec tup)
      end;
      true
    | Some tup, None ->
      current := Some (Tuple.project_arr tup key_idx, new_cell spec tup);
      true
  in
  with_filter out_schema g.Physical.having
    (Biter.lockstep out_schema ~step ~close:bit.Biter.close)

(* ==== morsel-driven parallel path (Physical.Exchange) ==== *)

and compile_segment ctx plan : segment =
  let cat = Exec_ctx.catalog ctx in
  match plan with
  | Physical.Seq_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let schema = Schema.rename_qualifier tbl.Catalog.tschema s.alias in
    let kernels =
      if s.filter = [] then [] else compile_batch_preds schema s.filter
    in
    let fn b =
      let b = List.fold_left (fun b k -> k b) b kernels in
      if Batch.is_empty b then None else Some b
    in
    { seg_heap = tbl.Catalog.heap; seg_scan_schema = schema;
      seg_schema = schema; seg_fn = fn }
  | Physical.Filter f ->
    let seg = compile_segment ctx f.input in
    let kernels = compile_batch_preds seg.seg_schema f.pred in
    let fn b =
      match seg.seg_fn b with
      | None -> None
      | Some b ->
        let b = List.fold_left (fun b k -> k b) b kernels in
        if Batch.is_empty b then None else Some b
    in
    { seg with seg_fn = fn }
  | Physical.Project p ->
    let seg = compile_segment ctx p.input in
    let fns =
      Array.of_list
        (List.map (fun (e, _) -> Expr.compile seg.seg_schema e) p.cols)
    in
    let out_schema = Schema.of_columns (List.map snd p.cols) in
    let project tup = Array.map (fun f -> f tup) fns in
    let fn b = Option.map (Batch.map out_schema project) (seg.seg_fn b) in
    { seg with seg_schema = out_schema; seg_fn = fn }
  | Physical.Hash_join j ->
    let build_plan, probe_plan =
      match j.build_side with
      | `Right -> (j.right, j.left)
      | `Left -> (j.left, j.right)
    in
    let nparts, build_inner =
      match build_plan with
      | Physical.Repartition r -> (Exchange.clamp_dop r.dop, r.input)
      | p -> (1, p)
    in
    let seg = compile_segment ctx probe_plan in
    (* The build side is evaluated once, serially, on the consuming domain
       (it may be an arbitrary plan). *)
    let build_bit = open_batch ctx build_inner in
    let build_schema = build_bit.Biter.schema in
    let build_rows = Biter.to_list build_bit in
    let build_pages =
      Page.pages_for ~rows:(List.length build_rows)
        ~row_bytes:(Schema.byte_width build_schema)
    in
    (* A spilling (grace) build has no parallel form with identical output
       order; the caller falls back to the serial plan. *)
    if build_pages > Exec_ctx.work_mem ctx then raise Unsupported_segment;
    let probe_schema = seg.seg_schema in
    let out_schema, emit, build_keys, probe_keys =
      match j.build_side with
      | `Right ->
        ( Schema.append probe_schema build_schema,
          (fun pt bt -> Tuple.concat pt bt),
          resolve_all build_schema (List.map snd j.keys),
          resolve_all probe_schema (List.map fst j.keys) )
      | `Left ->
        ( Schema.append build_schema probe_schema,
          (fun pt bt -> Tuple.concat bt pt),
          resolve_all build_schema (List.map fst j.keys),
          resolve_all probe_schema (List.map snd j.keys) )
    in
    let keep = compile_preds out_schema j.cond in
    let tables =
      if nparts = 1 then [| build_hash_table ~build_keys ~probe_keys build_rows |]
      else begin
        (* Partitioned parallel build: a key's rows all hash to one
           partition and keep their input order there, so each slice's
           table reproduces the serial table's bucket lists exactly. *)
        let parts = Array.make nparts [] in
        List.iter
          (fun bt ->
            let p = part_hash nparts build_keys bt in
            parts.(p) <- bt :: parts.(p))
          build_rows;
        let parts = Array.map List.rev parts in
        let tabs = Array.map (fun _ -> eq_index ~build_keys ~probe_keys 1024) parts in
        let (_ : unit array * Exchange.wstats array) =
          Exchange.fold ~ctx ~dop:nparts ~n_morsels:nparts
            ~worker:(fun ~wid:_ ~stats:_ _wctx ~claim ->
              let rec loop () =
                match claim () with
                | None -> ()
                | Some p ->
                  List.iter tabs.(p).add parts.(p);
                  loop ()
              in
              loop ())
            ()
        in
        tabs
      end
    in
    let lookup pt =
      let p = if nparts = 1 then 0 else part_hash nparts probe_keys pt in
      tables.(p).find pt
    in
    let fn b =
      match seg.seg_fn b with
      | None -> None
      | Some pb -> probe_batch out_schema ~lookup ~emit ~keep pb
    in
    { seg with seg_schema = out_schema; seg_fn = fn }
  | _ -> raise Unsupported_segment

(* Exchange as a streaming operator: workers run the segment morsel-wise,
   the consumer resequences.  Unsupported segments degrade to the serial
   plan (the exchange becomes a pass-through), keeping results correct for
   any plan shape the rewrite or the plan cache may hand us. *)
and open_exchange ctx ~dop input : Biter.t =
  if not (Exchange.segment_ok input) then open_batch ctx input
  else
    match compile_segment ctx input with
    | exception Unsupported_segment -> open_batch ctx input
    | seg ->
      let n_morsels, scan = morsel_geometry seg.seg_heap in
      let morsel ~wid:_ _wctx m = scan seg m in
      let on_done = worker_profile_nodes ctx ~dop in
      Exchange.gather ~ctx ~dop ~schema:seg.seg_schema ~n_morsels ~morsel
        ?on_done ()

(* Hash group over an exchange: each worker folds its morsels into a
   private partial table of the group-by kernel; the consumer merges the
   partials (the same partial algebra the matview extents use), so output
   is byte-identical to the serial operator. *)
and open_parallel_group ctx (g : Physical.group) ~dop input : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let seg = compile_segment ctx input in
  let in_schema = seg.seg_schema in
  let out_schema = Physical.schema cat (Physical.Hash_group g) in
  let (module G) =
    groups (agg_spec in_schema g.Physical.aggs) (resolve_all in_schema g.Physical.keys)
  in
  let n_morsels, scan = morsel_geometry seg.seg_heap in
  (* The exchange is fused into this operator, but observability should
     still show it: mirror it as a profile child with per-worker nodes. *)
  let xnode, on_done =
    match Exec_ctx.profiler ctx with
    | None -> (None, None)
    | Some prof ->
      let xn =
        Profile.enter prof (Physical.op_name (Physical.Exchange { input; dop }))
      in
      let fill = worker_profile_nodes ctx ~dop in
      Profile.leave prof;
      (Some xn, fill)
  in
  let worker ~wid:_ ~stats:(ws : Exchange.wstats) _wctx ~claim =
    let t = G.create () in
    let rec loop () =
      match claim () with
      | None -> t
      | Some m ->
        Option.iter
          (fun b ->
            let pos = ref 0 in
            Batch.iter
              (fun tup ->
                G.absorb t ~m ~pos:!pos tup;
                incr pos)
              b;
            ws.Exchange.wrows <- ws.Exchange.wrows + !pos;
            ws.Exchange.wbatches <- ws.Exchange.wbatches + 1)
          (scan seg m);
        loop ()
    in
    loop ()
  in
  let tables, wstats = Exchange.fold ~ctx ~dop ~n_morsels ~worker ?on_done () in
  let merged = G.create () in
  Array.iter (fun t -> G.merge ~into:merged t) tables;
  Option.iter
    (fun xn ->
      Array.iter
        (fun (ws : Exchange.wstats) ->
          xn.Profile.rows_out <- xn.Profile.rows_out + ws.Exchange.wrows;
          xn.Profile.batches <- xn.Profile.batches + ws.Exchange.wbatches;
          xn.Profile.ms <- Float.max xn.Profile.ms ws.Exchange.wms;
          xn.Profile.reads <- xn.Profile.reads + ws.Exchange.wio.Buffer_pool.reads;
          xn.Profile.writes <- xn.Profile.writes + ws.Exchange.wio.Buffer_pool.writes;
          xn.Profile.hits <- xn.Profile.hits + ws.Exchange.wio.Buffer_pool.hits)
        wstats)
    xnode;
  with_filter out_schema g.Physical.having (Biter.of_rows out_schema (G.rows merged))

let run ctx plan =
  (* Temps must be released even when an operator raises mid-pipeline
     (e.g. a type error in [Expr.eval]); otherwise spilled sort runs and
     join partitions leak on every failed query. *)
  Fun.protect
    ~finally:(fun () -> Exec_ctx.cleanup ctx)
    (fun () ->
      if Exec_ctx.guarded ctx then Exec_ctx.check ctx;
      Biter.to_relation (open_batch ctx plan))

let run_measured ?(cold = true) ctx plan =
  let st = Exec_ctx.storage ctx in
  if cold then begin
    (* Cold benchmark path (single-threaded by contract): empty the pool and
       zero the global counters so [Storage.io_stats] reads as one run. *)
    Buffer_pool.clear (Storage.pool st);
    Storage.reset_io st
  end;
  (* Measurement itself is delta-based on the calling domain's own tally:
     warm-path runs ([~cold:false], e.g. [Service.execute]) never reset
     shared counters, so overlapping measurements on concurrent workers
     cannot misattribute each other's IO. *)
  let before = Storage.io_snapshot st in
  let rel = run ctx plan in
  (rel, Storage.io_since st before)

let run_profiled_result ?(cold = false) ctx plan =
  let prof = Profile.create () in
  Exec_ctx.set_profiler ctx (Some prof);
  Fun.protect
    ~finally:(fun () -> Exec_ctx.set_profiler ctx None)
    (fun () ->
      match run_measured ~cold ctx plan with
      | rel, io -> Ok (rel, io, prof)
      | exception e ->
        (* Keep the partial per-operator stats: a timed-out or cancelled
           statement's profile shows where the time went before it died. *)
        Profile.set_error prof (Printexc.to_string e);
        Error (e, prof))

let run_profiled ?executor:(_ : engine option) ctx plan =
  match run_profiled_result ctx plan with
  | Ok (rel, _io, prof) -> (rel, prof)
  | Error (e, _prof) -> raise e
