(* E14 — the execution engine's CPU-side trajectory.

   Not a paper experiment: the paper's claims are about page IO, which the
   E1–E12 records pin.  This experiment records rows/sec of
   scan→filter→group and scan→filter→join→group pipelines over the
   TPC-D-like and star workloads, with their page IO, and runs each
   pipeline a second way — Sort + Sort_group instead of Hash_group, the
   engine's lockstep path — as a self-check that both groupings agree.
   Ends with the per-operator counters of a profiled run. *)

let col q n = Schema.column ~qual:q n Datatype.Int
let le q n v = Expr.Cmp (Expr.Le, Expr.Col (col q n), Expr.Const (Value.Int v))
let sum q n out = Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col q n)) out

(* Interleave trials of the two plans so machine-load drift hits both
   equally, and score each by its median trial — a median keeps one slow
   (or one lucky) run from swinging the reported ratio. *)
let time_pair n f g =
  let once h =
    let t0 = Unix.gettimeofday () in
    h ();
    Unix.gettimeofday () -. t0
  in
  let ts_f = Array.make n 0. and ts_g = Array.make n 0. in
  for i = 0 to n - 1 do
    ts_f.(i) <- once f;
    ts_g.(i) <- once g
  done;
  let median ts =
    Array.sort compare ts;
    ts.(n / 2)
  in
  (median ts_f, median ts_g)

type outcome = {
  same : bool;
  io_hash : int;
  io_sort : int;
  rps_hash : float;
  rps_sort : float;
}

(* The same grouping as a sort group over a sort of the group's input. *)
let as_sort_group = function
  | Physical.Hash_group g ->
    Physical.Sort_group
      { g with Physical.input = Physical.Sort { input = g.Physical.input; cols = g.Physical.keys; desc = [] } }
  | p -> p

let bench_pipeline ~cat ~name ~input_rows plan =
  let ctx = Exec_ctx.create ~work_mem:256 cat in
  let sorted = as_sort_group plan in
  let rel_hash, io_hash = Executor.run_measured ~cold:true ctx plan in
  let rel_sort, io_sort = Executor.run_measured ~cold:true ctx sorted in
  let same = Relation.multiset_equal rel_hash rel_sort in
  let io (s : Buffer_pool.stats) = s.Buffer_pool.reads + s.Buffer_pool.writes in
  (* Warm the pool, then time CPU-side throughput (median of 7,
     interleaved). *)
  ignore (Executor.run ctx plan);
  ignore (Executor.run ctx sorted);
  let t_hash, t_sort =
    time_pair 7
      (fun () -> ignore (Executor.run ctx plan))
      (fun () -> ignore (Executor.run ctx sorted))
  in
  let rps t = float_of_int input_rows /. t in
  let record name grouping stats t =
    Bench_util.Json.record ~name
      ~config:
        [ ("grouping", grouping); ("dop", "1");
          ("input_rows", string_of_int input_rows) ]
      ~io:(io stats) ~wall_ms:(t *. 1000.) ~rows_per_sec:(rps t) ()
  in
  record name "hash" io_hash t_hash;
  record (name ^ ".sort_group") "sort" io_sort t_sort;
  {
    same;
    io_hash = io io_hash;
    io_sort = io io_sort;
    rps_hash = rps t_hash;
    rps_sort = rps t_sort;
  }

let run () =
  let tpcd =
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
  let star =
    Star.load
      ~params:
        {
          Star.default_params with
          days = 365;
          products = 1000;
          stores = 50;
          rows_per_day = 300;
          frames = 4096;
        }
      ()
  in
  let lineitems = 3000 * 5 * 5 in
  let sales_rows = 365 * 300 in
  let scan_l =
    Physical.Seq_scan { alias = "l"; table = "lineitem"; filter = [ le "l" "qty" 5 ] }
  in
  let tpcd_sfg =
    Physical.Hash_group
      {
        Physical.input = scan_l;
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let tpcd_sfjg =
    Physical.Hash_group
      {
        Physical.input =
          Physical.Hash_join
            {
              left = Physical.Seq_scan { alias = "o"; table = "orders"; filter = [] };
              right = scan_l;
              keys = [ (col "o" "ok", col "l" "ok") ];
              cond = [];
              build_side = `Left;
            };
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let star_sfg =
    Physical.Hash_group
      {
        Physical.input =
          Physical.Seq_scan
            { alias = "s"; table = "sales"; filter = [ le "s" "qty" 3 ] };
        agg_qual = "g";
        keys = [ col "s" "prod" ];
        aggs = [ sum "s" "qty" "units" ];
        having = [];
      }
  in
  let pipelines =
    [
      ("tpcd.scan_filter_group", tpcd, lineitems, tpcd_sfg);
      ("tpcd.scan_filter_join_group", tpcd, lineitems, tpcd_sfjg);
      ("star.scan_filter_group", star, sales_rows, star_sfg);
    ]
  in
  let rows =
    List.map
      (fun (name, cat, input_rows, plan) ->
        let o = bench_pipeline ~cat ~name ~input_rows plan in
        ( name,
          [
            name;
            Bench_util.i input_rows;
            Printf.sprintf "%.2fM" (o.rps_hash /. 1e6);
            Printf.sprintf "%.2fM" (o.rps_sort /. 1e6);
            Bench_util.i o.io_hash;
            Bench_util.i o.io_sort;
            (if o.same then "yes" else "NO");
          ],
          o ))
      pipelines
  in
  Bench_util.print_table ~title:"E14: execution engine throughput and page IO"
    ~header:
      [ "pipeline"; "rows_in"; "hash M/s"; "sort M/s"; "io"; "io(sort)";
        "agree" ]
    (List.map (fun (_, r, _) -> r) rows);
  (* Per-operator counters of a profiled run (join pipeline). *)
  let ctx = Exec_ctx.create ~work_mem:256 tpcd in
  let _, prof = Executor.run_profiled ctx tpcd_sfjg in
  Printf.printf "\nper-operator counters (tpcd.scan_filter_join_group):\n%s\n"
    (Profile.to_string prof);
  Printf.printf "\nverdict: %s\n"
    (if List.for_all (fun (_, _, o) -> o.same) rows then
       "reproduced — hash and sort grouping agree on every pipeline"
     else "NOT met — see table above")
