(* E1 — Example 1 crossover (paper Section 3).

   Query A (multi-block): join emp with the aggregate view A1(dno, avg sal).
   Query B (after pull-up): single-block group-by over the join.
   The paper argues A wins when many employees qualify and B wins when the
   age predicate is selective; the cost-based paper algorithm should track
   the winner.  We sweep the age limit (predicate selectivity) and the
   number of departments (group count). *)

let run () =
  let emps = 30_000 in
  let age_max = 2000 in
  let rows = ref [] in
  List.iter
    (fun depts ->
      List.iter
        (fun age_limit ->
          let params =
            { Emp_dept.default_params with emps; depts; age_min = 18; age_max }
          in
          let cat = Emp_dept.load ~params () in
          let qa = Emp_dept.example1 ~age_limit () in
          let qb = Emp_dept.example1_pulled_up ~age_limit () in
          let work_mem = 8 in
          let a = Bench_util.run_algo ~work_mem cat qa Optimizer.Traditional in
          let b = Bench_util.run_algo ~work_mem cat qb Optimizer.Greedy_conservative in
          let p = Bench_util.run_algo ~work_mem cat qa Optimizer.Paper in
          let sel =
            float_of_int (age_limit - 18) /. float_of_int (age_max - 18 + 1)
          in
          let winner =
            if Bench_util.io_total a < Bench_util.io_total b then "A" else "B"
          in
          let tracks =
            Bench_util.io_total p
            <= min (Bench_util.io_total a) (Bench_util.io_total b) + 10
          in
          rows :=
            [
              Bench_util.i depts;
              Printf.sprintf "%.3f" sel;
              Bench_util.i (Bench_util.io_total a);
              Bench_util.i (Bench_util.io_total b);
              Bench_util.i (Bench_util.io_total p);
              winner;
              (if tracks then "yes" else "NO");
              Bench_util.i p.Bench_util.rows;
            ]
            :: !rows)
        [ 20; 60; 200; 800; 1999 ])
    [ 50; 2000 ];
  Bench_util.print_table
    ~title:
      "E1  Example 1: view-join (A) vs pulled-up single block (B) vs cost-based paper algorithm"
    ~header:
      [ "depts"; "age-sel"; "io(A)"; "io(B)"; "io(paper)"; "best"; "paper<=best"; "rows" ]
    (List.rev !rows)
