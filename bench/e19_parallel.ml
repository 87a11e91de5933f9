(* E19 — morsel-driven intra-query parallelism.

   Not a paper experiment: like E14 this tracks the repo's CPU-side perf
   trajectory.  The E14 scan->filter->group pipeline (75k lineitem rows)
   runs serial and through the exchange operator at dop 1, 2 and 4;
   outputs must stay byte-identical at every dop, dop 1 through the
   exchange must cost < 10% over the bare serial plan, and a multi-core
   host must show >= 2x rows/sec at dop 4.  On a single-core CI runner
   the scaling half of the verdict is waived (the determinism and
   dop-1-overhead checks still bind). *)

let col q n = Schema.column ~qual:q n Datatype.Int
let le q n v = Expr.Cmp (Expr.Le, Expr.Col (col q n), Expr.Const (Value.Int v))
let sum q n out = Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col q n)) out

(* Interleaved trials scored by median, as in E14: machine-load drift hits
   every configuration equally. *)
let time_round n fs =
  let ts = Array.make_matrix (List.length fs) n 0. in
  for i = 0 to n - 1 do
    List.iteri
      (fun j f ->
        let t0 = Unix.gettimeofday () in
        f ();
        ts.(j).(i) <- Unix.gettimeofday () -. t0)
      fs
  done;
  List.mapi
    (fun j _ ->
      let row = ts.(j) in
      Array.sort compare row;
      row.(n / 2))
    fs

let run () =
  let cat =
    Tpcd.load
      ~params:
        {
          Tpcd.default_params with
          customers = 3000;
          orders_per_customer = 5;
          lines_per_order = 5;
          parts = 500;
          frames = 4096;
        }
      ()
  in
  let input_rows = 3000 * 5 * 5 in
  let serial =
    Physical.Hash_group
      {
        Physical.input =
          Physical.Seq_scan
            { alias = "l"; table = "lineitem"; filter = [ le "l" "qty" 5 ] };
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let dops = [ 1; 2; 4 ] in
  let plans =
    ("serial", 0, serial)
    :: List.map
         (fun d ->
           (Printf.sprintf "dop%d" d, d, Exchange.parallelize ~dop:d serial))
         dops
  in
  let ctx = Exec_ctx.create ~work_mem:256 cat in
  let run_plan p = Executor.run ctx p in
  (* Correctness first: every parallel plan byte-identical to serial. *)
  let reference = run_plan serial in
  let identical =
    List.for_all
      (fun (_, _, p) ->
        let r = run_plan p in
        let ta = Relation.tuples reference and tb = Relation.tuples r in
        List.length ta = List.length tb && List.for_all2 Tuple.equal ta tb)
      plans
  in
  (* Warm the pool, then interleave 7 timed trials of each configuration. *)
  List.iter (fun (_, _, p) -> ignore (run_plan p)) plans;
  let medians =
    time_round 7 (List.map (fun (_, _, p) () -> ignore (run_plan p)) plans)
  in
  let rps t = float_of_int input_rows /. t in
  let timed =
    List.map2 (fun (name, d, _) t -> (name, d, t, rps t)) plans medians
  in
  let rps_of want =
    match List.find_opt (fun (n, _, _, _) -> n = want) timed with
    | Some (_, _, _, r) -> r
    | None -> 0.
  in
  let base = rps_of "serial" in
  List.iter
    (fun (name, d, t, r) ->
      Bench_util.Json.record
        ~name:(Printf.sprintf "tpcd.scan_filter_group.%s" name)
        ~config:
          [
            ("engine", if d = 0 then "batch" else "exchange");
            ("dop", string_of_int (max 1 d));
            ("input_rows", string_of_int input_rows);
          ]
        ~io:0 ~wall_ms:(t *. 1000.) ~rows_per_sec:r ())
    timed;
  Bench_util.print_table ~title:"E19: morsel-driven parallel scan+group"
    ~header:[ "plan"; "rows_in"; "M rows/s"; "vs serial"; "identical" ]
    (List.map
       (fun (name, _, _, r) ->
         [
           name;
           Bench_util.i input_rows;
           Printf.sprintf "%.2fM" (r /. 1e6);
           Bench_util.f2 (r /. base);
           (if identical then "yes" else "NO");
         ])
       timed);
  (* Per-operator counters of a profiled dop-4 run: the exchange node plus
     its worker-<i> children (rows, batches, wall ms, page IO each). *)
  (match List.find_opt (fun (n, _, _) -> n = "dop4") plans with
   | Some (_, _, p) ->
     let _, prof = Executor.run_profiled ctx p in
     Printf.printf "\nper-operator counters (dop 4):\n%s\n"
       (Profile.to_string prof)
   | None -> ());
  let cores = Domain.recommended_domain_count () in
  let dop1_ok = rps_of "dop1" >= 0.9 *. base in
  let scaling_ok = rps_of "dop4" >= 2.0 *. rps_of "dop1" in
  Printf.printf "\nhost: %d recommended domains\n" cores;
  Printf.printf "verdict: %s\n"
    (if not identical then "NOT met — parallel output diverged from serial"
     else if not dop1_ok then
       "NOT met — dop 1 through the exchange regresses > 10%"
     else if scaling_ok then
       "reproduced — byte-identical output, dop 1 overhead < 10%, >= 2x \
        rows/sec at dop 4"
     else if cores < 2 then
       "partially reproduced — byte-identical output and dop 1 overhead < \
        10%; scaling not measurable on a single-core host"
     else "NOT met — < 2x rows/sec at dop 4 on a multi-core host")
