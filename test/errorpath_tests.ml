(* Error-path resource tests: a query that fails mid-pipeline must not leak
   temp heap files, and eager operator closes (Limit) must compose with the
   executor's unconditional cleanup.  The failing operator sits *above* a
   spilling external sort, so at the moment of the raise the sort's run
   files exist and are mid-merge. *)

let c ~q n = Schema.column ~qual:q n Datatype.Int

(* 1200 rows of a 2-int schema (~256 rows/page -> ~5 pages), so an external
   sort with work_mem = 3 spills to temp runs. *)
let n_rows = 1200

let build_catalog () =
  let cat = Catalog.create ~frames:256 () in
  let rows =
    List.init n_rows (fun i -> Tuple.make [ Value.Int i; Value.Int (i * 37 mod 101) ])
  in
  ignore
    (Catalog.add_table cat ~name:"r"
       ~columns:[ ("k", Datatype.Int); ("v", Datatype.Int) ]
       ~pk:[ "k" ] ~index:[] rows);
  cat

let spilling_sort = Physical.Sort
    { input = Physical.Seq_scan { alias = "a"; table = "r"; filter = [] };
      cols = [ c ~q:"a" "v" ] ; desc = [] }

(* 100 / (v - 50) > 0 — evaluates fine (negative) for v < 50, raises
   Type_error (division by zero) once the sorted stream reaches v = 50. *)
let exploding_pred =
  Expr.Cmp
    ( Expr.Gt,
      Expr.Binop
        (Expr.Div, Expr.int 100, Expr.Binop (Expr.Sub, Expr.Col (c ~q:"a" "v"), Expr.int 50)),
      Expr.int 0 )

(* The "row:" cases put a lockstep operator, which consumes its input a row
   at a time, between the spilling sort and the failure or the Limit: a
   sort group over the sorted stream (one output row per distinct v). *)
let grouped input =
  Physical.Sort_group
    { input; agg_qual = "g"; keys = [ c ~q:"a" "v" ];
      aggs = [ Aggregate.make Aggregate.Count_star "n" ]; having = [] }

let distinct_v = 101

let failing_plan input = Physical.Filter { input; pred = [ exploding_pred ] }

let check_no_leak name input () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let raised =
    match Executor.run ctx (failing_plan input) with
    | _ -> false
    | exception Value.Type_error _ -> true
  in
  Alcotest.(check bool) (name ^ ": Type_error propagates") true raised;
  Alcotest.(check int) (name ^ ": zero temp files survive") 0 (Exec_ctx.live_temps ctx)

(* Sanity: the same sort *does* spill and completes cleanly without the
   exploding filter, and cleanup still leaves no temps. *)
let check_clean_run name input rows () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let rel = Executor.run ctx input in
  Alcotest.(check int) (name ^ ": row count") rows (Relation.cardinality rel);
  Alcotest.(check int) (name ^ ": zero temps after run") 0 (Exec_ctx.live_temps ctx)

(* Limit closes its input eagerly after [count] rows; the executor's
   unconditional cleanup then closes again.  Both closes and the temp drops
   must compose (idempotent close, idempotent drop). *)
let check_limit_compose name input () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let plan = Physical.Limit { input; count = 5 } in
  let rel = Executor.run ctx plan in
  Alcotest.(check int) (name ^ ": limited rows") 5 (Relation.cardinality rel);
  Alcotest.(check int) (name ^ ": zero temps after eager close") 0
    (Exec_ctx.live_temps ctx)

let sample_schema = Schema.of_columns [ c ~q:"t" "x" ]
let sample_rows = List.init 10 (fun i -> Tuple.make [ Value.Int i ])

exception Boom

(* A lockstep iterator (here the k-way merge) closes all its inputs when
   the drain above it raises. *)
let iter_closes_on_exception () =
  let closes = ref 0 in
  let source () =
    let base = Biter.of_rows sample_schema (Array.of_list sample_rows) in
    { base with Biter.close = (fun () -> incr closes; base.Biter.close ()) }
  in
  let cmp a b = Value.compare (Tuple.get a 0) (Tuple.get b 0) in
  let merged = Xsort.merge sample_schema cmp [ source (); source () ] in
  (try Biter.iter (fun _ -> raise Boom) merged with Boom -> ());
  Alcotest.(check int) "each input closed exactly once" 2 !closes

let biter_closes_on_exception () =
  let closes = ref 0 in
  let base = Biter.of_rows sample_schema (Array.of_list sample_rows) in
  let bt =
    { base with Biter.close = (fun () -> incr closes; base.Biter.close ()) }
  in
  (try Biter.iter (fun _ -> raise Boom) bt with Boom -> ());
  Alcotest.(check int) "batch source closed exactly once" 1 !closes

let once_idempotent () =
  let calls = ref 0 in
  let g = Biter.once (fun () -> incr calls) in
  g (); g (); g ();
  Alcotest.(check int) "wrapped close ran once" 1 !calls

let drop_idempotent () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let tmp = Exec_ctx.temp ctx sample_schema in
  Alcotest.(check int) "one live temp" 1 (Exec_ctx.live_temps ctx);
  Exec_ctx.drop ctx tmp;
  Exec_ctx.drop ctx tmp;
  Alcotest.(check int) "double drop leaves zero" 0 (Exec_ctx.live_temps ctx);
  Exec_ctx.cleanup ctx;
  Alcotest.(check int) "cleanup after drop is a no-op" 0 (Exec_ctx.live_temps ctx)

let tests =
  [
    Alcotest.test_case "row: failed query leaks no temps" `Quick
      (check_no_leak "row" (grouped spilling_sort));
    Alcotest.test_case "batch: failed query leaks no temps" `Quick
      (check_no_leak "batch" spilling_sort);
    Alcotest.test_case "row: clean spilling sort leaves no temps" `Quick
      (check_clean_run "row" (grouped spilling_sort) distinct_v);
    Alcotest.test_case "batch: clean spilling sort leaves no temps" `Quick
      (check_clean_run "batch" spilling_sort n_rows);
    Alcotest.test_case "row: limit eager close composes with cleanup" `Quick
      (check_limit_compose "row" (grouped spilling_sort));
    Alcotest.test_case "batch: limit eager close composes with cleanup" `Quick
      (check_limit_compose "batch" spilling_sort);
    Alcotest.test_case "iter closes source on exception" `Quick
      iter_closes_on_exception;
    Alcotest.test_case "biter closes source on exception" `Quick biter_closes_on_exception;
    Alcotest.test_case "once close wrappers are idempotent" `Quick once_idempotent;
    Alcotest.test_case "exec_ctx drop is idempotent" `Quick drop_idempotent;
  ]
