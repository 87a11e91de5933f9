(* The benchmark's own tests, run by [avqbench --self-test]:

   - determinism: on the serial analytic_cold path (dop 1, a fixed number
     of statements), page reads and writes, result rows, plan-cache
     sources and misses and the optimizer's search counts repeat exactly
     across two runs with the same seed — wall-clock numbers are compared
     by the benchmark runs, never gated;
   - the answer comparison accepts reordered rows and float rendering
     noise and rejects a changed answer;
   - BENCHMARK.json, when present in the working directory, names every
     workload and metric this program reports. *)

open Common

let failures = ref 0

let check name ok =
  Printf.printf "%-60s %s\n%!" name (if ok then "ok" else "FAILED");
  if not ok then incr failures

let determinism () =
  List.iter
    (fun seed ->
      let o1, miss1 = Analytic.serial_outcomes ~seed ~n:48 in
      let o2, miss2 = Analytic.serial_outcomes ~seed ~n:48 in
      check (Printf.sprintf "seed %d: 48 serial statements ran" seed) (List.length o1 = 48);
      check (Printf.sprintf "seed %d: plan-cache misses repeat (%d)" seed miss1) (miss1 = miss2);
      check
        (Printf.sprintf "seed %d: page IO, rows, sources, search counts repeat" seed)
        (o1 = o2);
      check
        (Printf.sprintf "seed %d: the stream misses the cache and reads pages" seed)
        (miss1 > 0 && List.exists (fun o -> o.Analytic.reads > 0) o1))
    [ 1; 2 ]

let comparison () =
  let rel =
    Relation.create
      (Schema.of_columns
         [ Schema.column ~qual:"e" "dno" Datatype.Int; Schema.column ~qual:"e" "a" Datatype.Float ])
      [ Tuple.make [ Value.Int 1; Value.Float 2.5 ]; Tuple.make [ Value.Int 0; Value.Float (1. /. 3.) ] ]
  in
  let body = Format.asprintf "%a" Relation.pp rel in
  check "a rendered reply parses back to its rows" (rows_equal (rows_of_body body) (rows_of_relation rel));
  check "row order and last-digit float noise are tolerated"
    (rows_equal [ [ "0"; "0.333333" ]; [ "1"; "2.5" ] ] [ [ "1"; "2.5" ]; [ "0"; "0.333334" ] ]);
  check "a changed value is a mismatch" (not (rows_equal [ [ "1"; "2.5" ] ] [ [ "1"; "2.6" ] ]));
  check "a missing row is a mismatch" (not (rows_equal [ [ "1" ]; [ "2" ] ] [ [ "1" ] ]))

let benchmark_json ~workloads ~end_to_end ~per_layer =
  match read_file "BENCHMARK.json" with
  | None -> print_endline "BENCHMARK.json not in the working directory: skipped"
  | Some text ->
    let contains s =
      let n = String.length s and t = String.length text in
      let rec go i = i + n <= t && (String.sub text i n = s || go (i + 1)) in
      go 0
    in
    List.iter
      (fun (name, unit_) ->
        check
          (Printf.sprintf "BENCHMARK.json lists %s in %s" name unit_)
          (contains (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" name unit_)))
      (end_to_end @ per_layer);
    List.iter
      (fun w -> check ("BENCHMARK.json lists workload " ^ w) (contains (Printf.sprintf "\"name\": \"%s\"" w)))
      workloads

let run ~workloads ~end_to_end ~per_layer =
  comparison ();
  benchmark_json ~workloads ~end_to_end ~per_layer;
  determinism ();
  if !failures = 0 then 0 else 1
