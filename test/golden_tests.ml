(* The executor against its golden table ([Golden_exec]): for every plan the
   differential draws — 100 seeds x work_mem {4, 32} x the three
   algorithms over three small catalogs — and for Example 1 at 2000
   departments, the plan must still be the recorded one and its run must
   return the recorded result with the recorded page reads and writes.

   A plan that changed fails by name; nothing is skipped.  The failure
   prints the entry re-recorded from the current build and whether its
   result agrees with the reference interpreter ([Block.reference_eval]);
   paste it over the old entry only when it does and the page IO change is
   explained. *)

let vstr = function
  | Value.Int i -> Printf.sprintf "i%d" i
  | Value.Float f -> Printf.sprintf "f%h" f
  | Value.String s -> "s" ^ String.escaped s
  | Value.Bool b -> if b then "bt" else "bf"
  | Value.Date d -> Printf.sprintf "d%d" d

(* Order-insensitive digest of a result's multiset of rows. *)
let result_hash rel =
  Relation.tuples rel
  |> List.map (fun t -> String.concat "," (Array.to_list (Array.map vstr t)))
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

let plan_hash p = Digest.to_hex (Digest.string (Physical.to_string p))

let algorithms =
  [ ("traditional", Optimizer.Traditional);
    ("greedy", Optimizer.Greedy_conservative);
    ("paper", Optimizer.Paper) ]

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

(* Check one entry; returns the failure message, if any. *)
let check_entry ~label cat ~work_mem ~algo q (plan_h, result_h, reads, writes) =
  let options =
    { Optimizer.default_options with algorithm = List.assoc algo algorithms; work_mem }
  in
  let plan = (Optimizer.optimize ~options cat q).Optimizer.plan in
  let rel, io =
    Executor.run_measured ~cold:true (Exec_ctx.create ~work_mem cat) plan
  in
  let now =
    Printf.sprintf "%S, %S, %d, %d" (plan_hash plan) (result_hash rel)
      io.Buffer_pool.reads io.Buffer_pool.writes
  in
  if plan_hash plan <> plan_h then
    Some
      (Printf.sprintf "%s: plan changed; re-recorded (%s), result %s the reference"
         label now
         (if Relation.multiset_equal rel (Block.reference_eval cat q) then "matches"
          else "DIFFERS FROM"))
  else if result_hash rel <> result_h then Some (label ^ ": result differs")
  else if io.Buffer_pool.reads <> reads || io.Buffer_pool.writes <> writes then
    Some
      (Printf.sprintf "%s: page IO %d/%d, golden %d/%d" label io.Buffer_pool.reads
         io.Buffer_pool.writes reads writes)
  else None

let report failures =
  match List.filter_map Fun.id failures with
  | [] -> ()
  | fs -> Alcotest.failf "%d golden entries failed:\n%s" (List.length fs) (String.concat "\n" fs)

let differential () =
  Alcotest.(check int) "entries" 600 (List.length Golden_exec.differential);
  let cats = Lazy.force diff_catalogs in
  report
    (List.map
       (fun (seed, work_mem, algo, plan_h, result_h, reads, writes) ->
         let name, cat = List.nth cats (seed mod 3) in
         let q =
           Query_gen.generate ~complexity:`Rich (Rng.create ~seed:(seed * 7919)) cat
         in
         check_entry
           ~label:(Printf.sprintf "%s seed %d wm %d %s" name seed work_mem algo)
           cat ~work_mem ~algo q (plan_h, result_h, reads, writes))
       Golden_exec.differential)

let example1 () =
  let cat =
    Emp_dept.load
      ~params:
        { Emp_dept.default_params with emps = 30_000; depts = 2000; age_min = 18;
          age_max = 2000 }
      ()
  in
  report
    (List.map
       (fun (age_limit, algo, query, plan_h, result_h, reads, writes) ->
         let q =
           if query = "A" then Emp_dept.example1 ~age_limit ()
           else Emp_dept.example1_pulled_up ~age_limit ()
         in
         check_entry
           ~label:(Printf.sprintf "example1 age<%d %s %s" age_limit query algo)
           cat ~work_mem:8 ~algo q (plan_h, result_h, reads, writes))
       Golden_exec.example1)

(* ---- page order of the lockstep operators ----

   Hand-built plans on a 12-frame pool where the order of page touches
   decides the IO: index scans and index-NL joins under consumers that do
   IO between rows (a spool, a spilling sort, a block nested loop, a
   Limit).  The expected reads and writes are the row interpreter's,
   recorded with the table above.  Feeding these operators whole 1024-row
   batches reads ahead of the interpreter: 66/10 instead of 63/11 under
   the Materialize, 50 instead of 43 under the Limit. *)

let pc q n = Schema.column ~qual:q n Datatype.Int

let page_order_catalog () =
  let cat = Catalog.create ~frames:12 () in
  ignore
    (Catalog.add_table cat ~name:"r"
       ~columns:[ ("k", Datatype.Int); ("v", Datatype.Int); ("g", Datatype.Int) ]
       ~pk:[ "k" ]
       (List.init 3000 (fun k ->
            Tuple.make [ Value.Int k; Value.Int (k * 7 mod 101); Value.Int (k mod 13) ])));
  ignore
    (Catalog.add_table cat ~name:"s"
       ~columns:[ ("k", Datatype.Int); ("w", Datatype.Int) ]
       ~pk:[ "k" ]
       (List.init 2000 (fun k -> Tuple.make [ Value.Int (k * 2); Value.Int (k * 3 mod 50) ])));
  cat

let iscan alias table lo hi =
  Physical.Index_scan
    { alias; table; column = "k"; lo = Some (Value.Int lo, true);
      hi = Some (Value.Int hi, true); filter = [] }

let inl left =
  Physical.Index_nl_join
    { left; alias = "s"; table = "s"; column = "k"; outer_key = pc "r" "k"; cond = [] }

(* (name, work_mem, plan, (result digest, reads, writes)) *)
let page_order_plans =
  [
    ("materialize over index-NL over index scan", 4,
     Physical.Materialize { input = inl (iscan "r" "r" 100 2500) },
     ("a996082581ff1028979b62d5d3cf603f", 63, 11));
    ("spilling sort over merge join of index scans", 3,
     Physical.Sort
       { input =
           Physical.Merge_join
             { left = iscan "r" "r" 0 2999; right = iscan "s" "s" 0 3999;
               keys = [ (pc "r" "k", pc "s" "k") ]; cond = [] };
         cols = [ pc "r" "v" ]; desc = [] },
     ("2a1c06ee26832196a41d94435225aa6b", 105, 43));
    ("BNL with an index-scan outer", 3,
     Physical.Block_nl_join
       { left = iscan "r" "r" 0 1500;
         right = Physical.Seq_scan { alias = "s"; table = "s"; filter = [] };
         cond = [ Expr.Cmp (Expr.Eq, Expr.Col (pc "r" "g"), Expr.Col (pc "s" "w")) ] },
     ("0ce1ba556881fca581d850b05ae8822e", 30, 0));
    ("sort group over a spilling sort of index-NL", 3,
     Physical.Sort_group
       { input =
           Physical.Sort { input = inl (iscan "r" "r" 0 2999); cols = [ pc "r" "g" ]; desc = [] };
         agg_qual = "a"; keys = [ pc "r" "g" ];
         aggs = [ Aggregate.make Aggregate.Sum ~arg:(Expr.Col (pc "s" "w")) "sw" ];
         having = [] },
     ("1fb6a7fd787b28a7e16c1fc870572565", 103, 44));
    ("limit over index-NL", 3,
     Physical.Limit { input = inl (iscan "r" "r" 0 2999); count = 700 },
     ("9488ce1591b2d745cfe3b3654b19f002", 43, 0));
  ]

let page_order () =
  let cat = page_order_catalog () in
  report
    (List.map
       (fun (name, work_mem, plan, (result_h, reads, writes)) ->
         let rel, io =
           Executor.run_measured ~cold:true (Exec_ctx.create ~work_mem cat) plan
         in
         if result_hash rel <> result_h then Some (name ^ ": result differs")
         else if io.Buffer_pool.reads <> reads || io.Buffer_pool.writes <> writes then
           Some
             (Printf.sprintf "%s: page IO %d/%d, interpreter %d/%d" name
                io.Buffer_pool.reads io.Buffer_pool.writes reads writes)
         else None)
       page_order_plans)

let tests =
  [
    Alcotest.test_case "generated plans: result and page IO" `Quick
      differential;
    Alcotest.test_case "Example 1 at 2000 departments" `Quick example1;
    Alcotest.test_case "lockstep operators keep the page order" `Quick page_order;
  ]
