(* Morsel-driven parallelism: the exchange rewrite's shapes, the
   differential property that a parallel plan's output is byte-identical
   to the serial plan's at every dop (all three algorithms, spilling and
   non-spilling work_mem), and error containment — a failing or timed-out
   worker cancels its siblings, the morsel queues drain, every temp is
   freed, and exactly one typed error surfaces. *)

let col q n = Schema.column ~qual:q n Datatype.Int
let le q n v = Expr.Cmp (Expr.Le, Expr.Col (col q n), Expr.Const (Value.Int v))
let sum q n out = Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col q n)) out

let tiny =
  { Tpcd.default_params with customers = 60; orders_per_customer = 3;
    lines_per_order = 4; parts = 40; suppliers = 8 }

let scan_l filter =
  Physical.Seq_scan { alias = "l"; table = "lineitem"; filter }

let group_l input =
  Physical.Hash_group
    {
      Physical.input;
      agg_qual = "g";
      keys = [ col "l" "pk" ];
      aggs = [ sum "l" "price" "rev" ];
      having = [];
    }

let run_batch ?work_mem cat plan =
  let ctx = Exec_ctx.create ?work_mem cat in
  Fun.protect
    ~finally:(fun () -> Exec_ctx.cleanup ctx)
    (fun () -> Executor.run ctx plan)

let same_bytes a b =
  let ta = Relation.tuples a and tb = Relation.tuples b in
  List.length ta = List.length tb && List.for_all2 Tuple.equal ta tb

(* ---- rewrite shapes ---------------------------------------------------- *)

let rewrite_shapes () =
  let scan = scan_l [ le "l" "qty" 5 ] in
  Alcotest.(check bool) "filtered scan is a morsel segment" true
    (Exchange.segment_ok scan);
  Alcotest.(check bool) "bare scan gets an exchange" true
    (Exchange.has_exchange (Exchange.parallelize ~dop:4 scan));
  Alcotest.(check bool) "group over a segment gets an exchange" true
    (Exchange.has_exchange (Exchange.parallelize ~dop:4 (group_l scan)));
  Alcotest.(check bool) "exchange recurses through Sort" true
    (Exchange.has_exchange
       (Exchange.parallelize ~dop:4
          (Physical.Sort
             { input = group_l scan; cols = [ col "g" "rev" ] ; desc = [] })));
  (* A UDF aggregate has no partial/merge decomposition. *)
  Alcotest.(check bool) "UDF aggregates never parallelize partials" false
    (Exchange.parallel_group_ok
       [ Aggregate.make
           (Aggregate.Udf
              {
                Aggregate.udf_name = "first";
                udf_result = Datatype.Int;
                udf_fold =
                  (function v :: _ -> v | [] -> Value.Int 0);
              })
           ~arg:(Expr.Col (col "l" "qty")) "u" ]);
  Alcotest.(check bool) "Int SUM partials merge exactly" true
    (Exchange.parallel_group_ok [ sum "l" "price" "rev" ])

(* ---- differential: parallel = serial, byte for byte -------------------- *)

let diff_catalogs =
  lazy
    [
      ( "tpcd",
        Tpcd.load
          ~params:
            { Tpcd.default_params with customers = 50; orders_per_customer = 3;
              lines_per_order = 3; parts = 30; suppliers = 8 }
          () );
      ( "star",
        Star.load
          ~params:
            { Star.default_params with days = 15; products = 25; stores = 5;
              rows_per_day = 25 }
          () );
      ("chain", Chain.load ~rows:250 ~n:4 ());
    ]

let prop_parallel_equals_serial =
  QCheck.Test.make
    ~name:"parallel plan output = serial plan output (dop 1, 2, 4)" ~count:18
    QCheck.(pair small_nat (int_range 0 1))
    (fun (seed, wm_pick) ->
      let name, cat = List.nth (Lazy.force diff_catalogs) (seed mod 3) in
      let rng = Rng.create ~seed:(seed * 7919) in
      let q = Query_gen.generate ~complexity:`Rich rng cat in
      let work_mem = if wm_pick = 0 then 4 else 32 in
      List.for_all
        (fun algo ->
          let options =
            { Optimizer.default_options with algorithm = algo; work_mem }
          in
          let plan = (Optimizer.optimize ~options cat q).Optimizer.plan in
          let serial = run_batch ~work_mem cat plan in
          List.for_all
            (fun dop ->
              let pplan = Exchange.parallelize ~dop plan in
              let par = run_batch ~work_mem cat pplan in
              same_bytes serial par
              || QCheck.Test.fail_reportf
                   "%s seed %d wm %d dop %d: parallel output diverged" name
                   seed work_mem dop)
            [ 1; 2; 4 ])
        [ Optimizer.Traditional; Optimizer.Greedy_conservative; Optimizer.Paper ])

(* ---- error containment ------------------------------------------------- *)

let worker_fault_containment () =
  let cat = Tpcd.load ~params:{ tiny with customers = 300 } () in
  let st = Catalog.storage cat in
  let plan = Physical.Exchange { input = scan_l [ le "l" "qty" 5 ]; dop = 4 } in
  let baseline = run_batch cat plan in
  (* Every page read faults: whichever worker claims a morsel first fails;
     its error wins the slot, siblings stop at their next claim, and the
     consumer re-raises exactly one typed error after the queue drains. *)
  let fplan = Fault.make [ Fault.rule ~op:Fault.Read ~p:1.0 () ] in
  Storage.Faults.install st fplan;
  let ctx = Exec_ctx.create cat in
  (match Executor.run_measured ~cold:true ctx plan with
  | _ -> Alcotest.fail "expected a typed IO fault from a morsel worker"
  | exception Avq_error.Error (Avq_error.Io_fault _) -> ());
  Exec_ctx.cleanup ctx;
  Alcotest.(check bool) "faults were injected" true (Fault.injected fplan >= 1);
  Alcotest.(check int) "no temp heap leaked" 0 (Storage.live_temps st);
  Storage.Faults.clear st;
  (* The team joined cleanly: the same plan runs again and reproduces the
     pre-fault result byte for byte. *)
  Alcotest.(check bool) "clean rerun after containment" true
    (same_bytes baseline (run_batch cat plan))

let deadline_stops_workers () =
  let cat = Tpcd.load ~params:{ tiny with customers = 300 } () in
  let st = Catalog.storage cat in
  (* Parallel partial aggregation: the deadline is polled at every morsel
     claim, on the workers' own domains. *)
  let plan =
    group_l (Physical.Exchange { input = scan_l [ le "l" "qty" 5 ]; dop = 4 })
  in
  let ctx = Exec_ctx.create cat in
  Exec_ctx.begin_statement ~timeout_ms:0.001 ctx;
  (match Executor.run ctx plan with
  | _ -> Alcotest.fail "expected a typed timeout"
  | exception Avq_error.Error (Avq_error.Timeout _) -> ());
  Exec_ctx.cleanup ctx;
  Alcotest.(check int) "no temp heap leaked on timeout" 0
    (Storage.live_temps st);
  (* A fresh statement without a deadline completes normally. *)
  let serial = run_batch cat (group_l (scan_l [ le "l" "qty" 5 ])) in
  Alcotest.(check bool) "parallel group after the timeout" true
    (same_bytes serial (run_batch cat plan))

let tests =
  [
    Alcotest.test_case "rewrite shapes" `Quick rewrite_shapes;
    QCheck_alcotest.to_alcotest ~long:true prop_parallel_equals_serial;
    Alcotest.test_case "worker fault cancels siblings" `Quick
      worker_fault_containment;
    Alcotest.test_case "deadline stops morsel workers" `Quick
      deadline_stops_workers;
  ]
