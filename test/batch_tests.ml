(* The batched execution engine: batch/selection-vector primitives, batch
   iterator adapters and cursors, the heap-based k-way merge and Limit's
   eager close.  The engine's results and page IO on generated plans are
   held to a golden table in [Golden_tests]. *)

let int_schema = Schema.of_columns [ Schema.column ~qual:"t" "x" Datatype.Int ]

let mk_tuples l = List.map (fun i -> Tuple.make [ Value.Int i ]) l

let ints_of rel =
  List.map
    (fun t -> match Tuple.get t 0 with Value.Int i -> i | _ -> assert false)
    (Relation.tuples rel)

let batch_ints b =
  List.map
    (fun t -> match Tuple.get t 0 with Value.Int i -> i | _ -> assert false)
    (Batch.to_list b)

(* ---- Batch / Biter primitives ---- *)

let batch_basics () =
  let rows = Array.of_list (mk_tuples [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
  let seg = Batch.of_segment int_schema rows ~lo:2 ~len:4 in
  Alcotest.(check int) "segment live" 4 (Batch.live seg);
  Alcotest.(check (list int)) "segment window" [ 2; 3; 4; 5 ] (batch_ints seg);
  let even =
    Batch.select
      (fun t -> match Tuple.get t 0 with Value.Int i -> i mod 2 = 0 | _ -> false)
      seg
  in
  Alcotest.(check (list int)) "select refines window" [ 2; 4 ] (batch_ints even);
  Alcotest.(check (list int)) "take after select" [ 2 ]
    (batch_ints (Batch.take 1 even));
  Alcotest.(check (list int)) "take on unselected" [ 2; 3 ]
    (batch_ints (Batch.take 2 seg));
  let doubled =
    Batch.map int_schema
      (fun t -> Tuple.make [ Value.mul (Tuple.get t 0) (Value.Int 2) ])
      even
  in
  Alcotest.(check (list int)) "map compacts" [ 4; 8 ] (batch_ints doubled);
  Alcotest.(check int) "fold counts live" 2
    (Batch.fold (fun acc _ -> acc + 1) 0 even)

(* The vectorized int-compare kernel must agree with the generic compiled
   predicate on every operator and every selection-vector state. *)
let prop_select_int_cmp =
  QCheck.Test.make ~name:"select_int_cmp = select (compile_pred)" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 40) (int_range (-8) 8))
        (int_range (-8) 8) (int_range 0 5))
    (fun (xs, k, opi) ->
      let op =
        List.nth [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] opi
      in
      let col = Schema.column ~qual:"t" "x" Datatype.Int in
      let pred = Expr.Cmp (op, Expr.Col col, Expr.Const (Value.Int k)) in
      let generic = Expr.compile_pred int_schema pred in
      let check b =
        batch_ints (Batch.select_int_cmp ~op ~idx:0 k b)
        = batch_ints (Batch.select generic b)
      in
      let b = Batch.of_list int_schema (mk_tuples xs) in
      (* plain, after a generic select (selection vector present), and as an
         offset segment *)
      check b
      && check (Batch.select (fun _ -> true) b)
      && check
           (let rows = Array.of_list (mk_tuples (0 :: xs)) in
            Batch.of_segment int_schema rows ~lo:1
              ~len:(Array.length rows - 1)))

let biter_adapters () =
  let tuples = mk_tuples (List.init 2500 (fun i -> i)) in
  let chunks = ref 0 in
  Biter.iter
    (fun b ->
      incr chunks;
      Alcotest.(check bool) "batches bounded" true
        (Batch.live b <= Batch.default_rows))
    (Biter.of_rows int_schema (Array.of_list tuples));
  Alcotest.(check int) "of_rows chunking" 3 !chunks;
  (* A cursor reads the rows back one at a time, in order, and reports a
     batch boundary exactly where the next row needs a new batch. *)
  let c = Biter.cursor (Biter.of_rows int_schema (Array.of_list tuples)) in
  Alcotest.(check bool) "fresh cursor is at a boundary" true (Biter.at_boundary c);
  let rec drain acc boundaries =
    let b = Biter.at_boundary c in
    match Biter.advance c with
    | None -> (List.rev acc, boundaries)
    | Some t -> drain (t :: acc) (if b then boundaries + 1 else boundaries)
  in
  let back, boundaries = drain [] 0 in
  Alcotest.(check bool) "cursor round trip preserves order" true
    (List.for_all2 Tuple.equal tuples back);
  Alcotest.(check int) "one boundary per batch" 3 boundaries;
  (* A heap scan serves one page per batch. *)
  let cat = Catalog.create ~frames:64 () in
  let tbl =
    Catalog.add_table cat ~name:"t" ~columns:[ ("x", Datatype.Int) ] ~pk:[ "x" ] tuples
  in
  let heap = tbl.Catalog.heap in
  let sizes = ref [] in
  Biter.iter (fun b -> sizes := Batch.live b :: !sizes) (Biter.scan int_schema heap);
  Alcotest.(check int) "one batch per page" (Heap_file.npages heap) (List.length !sizes);
  Alcotest.(check bool) "full pages" true
    (List.for_all (fun n -> n <= Heap_file.page_capacity heap) !sizes);
  Alcotest.(check int) "every row" 2500 (List.fold_left ( + ) 0 !sizes)

(* ---- heap-based k-way merge ---- *)

let merge_64_runs () =
  (* 64 sorted runs with interleaved and duplicated keys; the heap merge
     must produce a fully sorted result containing every input row. *)
  let nruns = 64 in
  let runs =
    List.init nruns (fun r ->
        List.init 40 (fun i -> (i * nruns) + ((r * 13) mod nruns)))
  in
  let inputs =
    List.map (fun run -> Biter.of_batches int_schema [ Batch.of_list int_schema (mk_tuples run) ]) runs
  in
  let cmp a b = Value.compare (Tuple.get a 0) (Tuple.get b 0) in
  let merged =
    List.map
      (fun t -> match Tuple.get t 0 with Value.Int i -> i | _ -> assert false)
      (Biter.to_list (Xsort.merge int_schema cmp inputs))
  in
  Alcotest.(check int) "all rows survive" (64 * 40) (List.length merged);
  Alcotest.(check bool) "fully sorted" true
    (List.for_all2 ( <= ) merged (List.tl merged @ [ max_int ]));
  Alcotest.(check (list int)) "same multiset" (List.sort compare (List.concat runs))
    (List.sort compare merged)

let merge_stability () =
  (* Equal keys must come out in run-index order (ties break on source). *)
  let schema2 =
    Schema.of_columns
      [ Schema.column ~qual:"t" "k" Datatype.Int;
        Schema.column ~qual:"t" "run" Datatype.Int ]
  in
  let run r keys =
    Biter.of_rows schema2
      (Array.of_list (List.map (fun k -> Tuple.make [ Value.Int k; Value.Int r ]) keys))
  in
  let cmp a b = Value.compare (Tuple.get a 0) (Tuple.get b 0) in
  let merged =
    Biter.to_list
      (Xsort.merge schema2 cmp
         [ run 0 [ 1; 5; 9 ]; run 1 [ 5; 5; 7 ]; run 2 [ 0; 5 ] ])
  in
  let pairs =
    List.map
      (fun t ->
        match (Tuple.get t 0, Tuple.get t 1) with
        | Value.Int k, Value.Int r -> (k, r)
        | _ -> assert false)
      merged
  in
  Alcotest.(check (list (pair int int)))
    "sorted, equal keys in run order"
    [ (0, 2); (1, 0); (5, 0); (5, 1); (5, 1); (5, 2); (7, 1); (9, 0) ]
    pairs

(* ---- Limit closes eagerly and close is idempotent ---- *)

let limit_eager_close () =
  let cat = Catalog.create ~frames:256 () in
  ignore
    (Catalog.add_table cat ~name:"t"
       ~columns:[ ("x", Datatype.Int) ]
       ~pk:[ "x" ]
       (mk_tuples (List.init 500 (fun i -> i))));
  let plan =
    Physical.Limit
      {
        input =
          Physical.Materialize
            { input = Physical.Seq_scan { alias = "a"; table = "t"; filter = [] } };
        count = 3;
      }
  in
  let rel = Executor.run (Exec_ctx.create cat) plan in
  Alcotest.(check int) "limit rows" 3 (Relation.cardinality rel);
  (* Pull through the iterator by hand: exhausting the count closes the
     input (dropping the Materialize temp) and the outer close must then be
     a no-op rather than a double drop. *)
  let ctx = Exec_ctx.create cat in
  let bit = Executor.open_batch ctx plan in
  let rec bdrain n =
    match bit.Biter.next_batch () with
    | None -> n
    | Some b -> bdrain (n + Batch.live b)
  in
  Alcotest.(check int) "batch iter yields count" 3 (bdrain 0);
  bit.Biter.close ();
  bit.Biter.close ();
  Exec_ctx.cleanup ctx

let tests =
  [
    Alcotest.test_case "batch primitives" `Quick batch_basics;
    QCheck_alcotest.to_alcotest prop_select_int_cmp;
    Alcotest.test_case "biter adapters" `Quick biter_adapters;
    Alcotest.test_case "heap merge of 64 runs" `Quick merge_64_runs;
    Alcotest.test_case "heap merge tie-break" `Quick merge_stability;
    Alcotest.test_case "limit closes input eagerly" `Quick limit_eager_close;
  ]
