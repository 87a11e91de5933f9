(* E14 — the execution engine's CPU-side trajectory.

   Not a paper experiment: the paper's claims are about page IO, which the
   E1–E12 records pin.  This experiment records rows/sec of
   scan→filter→group and scan→filter→join→group pipelines over the
   TPC-D-like and star workloads, with their page IO, and runs each
   pipeline a second way — Sort + Sort_group instead of Hash_group, the
   engine's lockstep path — as a self-check that both groupings agree.  A
   join-over-aggregate row runs the same equality as a block nested loop
   (whose outer blocks are indexed on the key) and as a hash join.  Ends
   with the per-operator counters of a profiled run. *)

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
  alt : string;
  same : bool;
  io : int;
  io_alt : int;
  rps : float;
  rps_alt : float;
}

(* The same grouping as a sort group over a sort of the group's input. *)
let as_sort_group = function
  | Physical.Hash_group g ->
    Physical.Sort_group
      { g with Physical.input = Physical.Sort { input = g.Physical.input; cols = g.Physical.keys; desc = [] } }
  | p -> p

(* Run [plan] and [alt] cold for page IO and the agreement check, then time
   both warm.  [alt]'s record is [name ^ "." ^ alt_name]. *)
let bench_pair ~cat ~work_mem ~name ~input_rows ~config ~alt_name ~alt_config plan alt =
  let ctx = Exec_ctx.create ~work_mem cat in
  let rel, io_plan = Executor.run_measured ~cold:true ctx plan in
  let rel_alt, io_alt = Executor.run_measured ~cold:true ctx alt in
  let same = Relation.multiset_equal rel rel_alt in
  let io (s : Buffer_pool.stats) = s.Buffer_pool.reads + s.Buffer_pool.writes in
  (* Warm the pool, then time CPU-side throughput (median of 7,
     interleaved). *)
  ignore (Executor.run ctx plan);
  ignore (Executor.run ctx alt);
  let t, t_alt =
    time_pair 7
      (fun () -> ignore (Executor.run ctx plan))
      (fun () -> ignore (Executor.run ctx alt))
  in
  let rps t = float_of_int input_rows /. t in
  let record name config stats t =
    Bench_util.Json.record ~name
      ~config:(config @ [ ("dop", "1"); ("input_rows", string_of_int input_rows) ])
      ~io:(io stats) ~wall_ms:(t *. 1000.) ~rows_per_sec:(rps t) ()
  in
  record name config io_plan t;
  record (name ^ "." ^ alt_name) alt_config io_alt t_alt;
  {
    alt = alt_name;
    same;
    io = io io_plan;
    io_alt = io io_alt;
    rps = rps t;
    rps_alt = rps t_alt;
  }

let bench_grouping ~cat ~name ~input_rows plan =
  bench_pair ~cat ~work_mem:256 ~name ~input_rows ~config:[ ("grouping", "hash") ]
    ~alt_name:"sort_group" ~alt_config:[ ("grouping", "sort") ] plan (as_sort_group plan)

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
  (* Join over an aggregate, the shape the paper's rewrites produce: orders
     joined back to lineitem revenue grouped on the join key.  The BNL's
     budget leaves several outer blocks. *)
  let bnl_work_mem = 16 in
  let scan_o =
    Physical.Seq_scan { alias = "o"; table = "orders"; filter = [ le "o" "ok" 5999 ] }
  in
  let rev_by_order =
    Physical.Hash_group
      {
        Physical.input = Physical.Seq_scan { alias = "l"; table = "lineitem"; filter = [] };
        agg_qual = "g";
        keys = [ col "l" "ok" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let bnl_join =
    Physical.Block_nl_join
      {
        left = scan_o;
        right = Physical.Materialize { input = rev_by_order };
        cond = [ Expr.Cmp (Expr.Eq, Expr.Col (col "o" "ok"), Expr.Col (col "l" "ok")) ];
      }
  in
  let hash_join =
    Physical.Hash_join
      { left = scan_o; right = rev_by_order; keys = [ (col "o" "ok", col "l" "ok") ];
        cond = []; build_side = `Right }
  in
  let join_config join = [ ("join", join); ("work_mem", string_of_int bnl_work_mem) ] in
  let pipelines =
    [
      ("tpcd.scan_filter_group", lineitems, bench_grouping ~cat:tpcd tpcd_sfg);
      ("tpcd.scan_filter_join_group", lineitems, bench_grouping ~cat:tpcd tpcd_sfjg);
      ("star.scan_filter_group", sales_rows, bench_grouping ~cat:star star_sfg);
      ("tpcd.bnl_equi_join", lineitems,
       bench_pair ~cat:tpcd ~work_mem:bnl_work_mem ~config:(join_config "bnl")
         ~alt_name:"hash_join" ~alt_config:(join_config "hash") bnl_join hash_join);
    ]
  in
  let rows =
    List.map
      (fun (name, input_rows, bench) ->
        let o = bench ~name ~input_rows in
        ( [
            name;
            Bench_util.i input_rows;
            Printf.sprintf "%.2fM" (o.rps /. 1e6);
            o.alt;
            Printf.sprintf "%.2fM" (o.rps_alt /. 1e6);
            Bench_util.i o.io;
            Bench_util.i o.io_alt;
            (if o.same then "yes" else "NO");
          ],
          o ))
      pipelines
  in
  Bench_util.print_table ~title:"E14: execution engine throughput and page IO"
    ~header:
      [ "pipeline"; "rows_in"; "M/s"; "alt"; "alt M/s"; "io"; "io(alt)"; "agree" ]
    (List.map fst rows);
  (* Per-operator counters of a profiled run (join pipeline). *)
  let ctx = Exec_ctx.create ~work_mem:256 tpcd in
  let _, prof = Executor.run_profiled ctx tpcd_sfjg in
  Printf.printf "\nper-operator counters (tpcd.scan_filter_join_group):\n%s\n"
    (Profile.to_string prof);
  Printf.printf "\nverdict: %s\n"
    (if List.for_all (fun (_, o) -> o.same) rows then
       "reproduced — hash and sort grouping agree on every pipeline, BNL and hash join \
        on the join"
     else "NOT met — see table above")
