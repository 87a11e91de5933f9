(* The avq benchmark: one command, three workloads, every answer checked.

     avqbench --workload served_hot|analytic_cold|ingest_mv|all --seed N
              --seconds S --trace 0|1
     avqbench --self-test

   With [--trace 0] it measures the end-to-end metrics with no tracing for
   S seconds; with [--trace 1] it measures the same load untraced for S/2
   seconds and then traced for S/2, and reports the per-layer metrics and
   the tracing overhead (the traced figures against the untraced ones).  The report
   is printed line by line; the last line of standard output is one JSON
   object {correct, attempted, failed, metrics}; with [--workload all]
   the metrics are prefixed by workload name and the peak memory is the
   whole process's.  Spans and the full result go to .avqbench/ in the
   working directory. *)

open Common

let workloads = [ "served_hot"; "analytic_cold"; "ingest_mv" ]

(* name, unit — the order and names BENCHMARK.json lists *)
let end_to_end =
  [ ("setup_s", "s"); ("read_p50_ms", "ms"); ("read_sps", "1/s"); ("ok_share", "share");
    ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("failed_share", "share"); ("read_p95_ms", "ms"); ("read_p99_ms", "ms");
    ("read_samples", "count");
    ("write_samples", "count");
    ("write_p50_ms", "ms"); ("write_p99_ms", "ms"); ("write_rows_per_s", "rows/s");
    ("write_late_p99_ms", "ms");
    ("recover_s", "s"); ("net.roundtrip_ms", "ms"); ("net.gap_ms", "ms");
    ("net.codec_ms", "ms"); ("net.server_ms", "ms"); ("net.rejected", "count");
    ("sql.prepare_ms", "ms"); ("service.plan_ms", "ms"); ("service.cache_hit_ratio", "share");
    ("service.invalidations", "count"); ("service.dispatch_ms", "ms");
    ("service.write_ms", "ms"); ("core.optimize_ms", "ms"); ("core.join_plans", "count");
    ("core.dp_entries", "count"); ("core.pullups", "count");
    ("cost.q_error_rows.median", "ratio"); ("cost.q_error_rows.max", "ratio");
    ("exec.run_ms", "ms") ]
  @ List.map (fun op -> ("exec.self_ms." ^ op, "ms")) (ops @ [ "other" ])
  @ [ ("exec.spill_pages", "pages"); ("storage.page_reads", "pages");
      ("storage.page_writes", "pages"); ("storage.pool_hit_ratio", "share");
      ("matview.rewrite_share", "share"); ("matview.maintain_ms", "ms");
      ("catalog.insert_ms", "ms"); ("wal.fsyncs_per_commit", "count");
      ("wal.bytes_per_row", "B"); ("wal.replayed", "count");
      ("trace.overhead_read_p50_ms", "ms"); ("trace.overhead_share", "share");
      ("trace.spans", "count") ]

let out_dir = ".avqbench"

let run_workload ~seed ~seconds ~trace = function
  | "served_hot" -> Served.run ~seed ~seconds ~trace
  | "analytic_cold" -> Analytic.run ~seed ~seconds ~trace
  | "ingest_mv" -> Ingest.run ~seed ~seconds ~trace ~out_dir
  | w -> invalid_arg w

(* JSON numbers: every digit as measured; a non-finite value is a bug in
   the benchmark and reads as 0. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let pick spec (ms : metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> String.equal x.name name) ms with
      | Some x -> x
      | None -> m name unit_ 0.)
    spec

(* The metrics a run reports: end-to-end untraced, per-layer traced. *)
let reported ~trace r =
  if trace then pick per_layer (r.layer @ r.e2e) else pick end_to_end r.e2e

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (num x.value) x.unit_)
          metrics))

let report ~name ~seed ~seconds ~trace (r : result) =
  let line k v = Printf.printf "# %-34s %s\n" k v in
  Printf.printf "== %s (seed %d, %gs measured, trace %d)\n" name seed seconds
    (if trace then 1 else 0);
  line "nproc" (string_of_int (nproc ()));
  line "Domain.recommended_domain_count" (string_of_int (Domain.recommended_domain_count ()));
  line "seed" (string_of_int seed);
  List.iter (fun (k, v) -> line k v) r.info;
  List.iter (fun (k, ok) -> line ("check: " ^ k) (if ok then "ok" else "FAILED")) r.checks;
  line "attempted / failed" (Printf.sprintf "%d / %d" r.attempted r.failed);
  let show title ms =
    Printf.printf "%s\n" title;
    List.iter (fun x -> Printf.printf "  %-34s %14.4f %s\n" x.name x.value x.unit_) ms
  in
  show "end-to-end (untraced):" (pick end_to_end r.e2e);
  if trace then begin
    show "per-layer:" (pick per_layer (r.layer @ r.e2e));
    Option.iter
      (fun sp ->
        Printf.printf "span self time (traced phase), count / total ms:\n";
        List.iter
          (fun (k, (n, ms)) -> Printf.printf "  %-34s %8d %12.2f\n" k n ms)
          (Spans.self_ms sp))
      r.spans
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir name seed (if trace then 1 else 0) in
  Option.iter (fun sp -> Spans.write sp (base ^ ".spans.jsonl")) r.spans;
  Out_channel.with_open_text (base ^ ".result.txt") (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s: %s\n" k v) r.info;
      List.iter
        (fun x -> Printf.fprintf oc "%s: %s %s\n" x.name (num x.value) x.unit_)
        (pick end_to_end r.e2e @ pick per_layer (r.layer @ r.e2e)));
  flush stdout

let main ~workload ~seed ~seconds ~trace =
  let names = if workload = "all" then workloads else [ workload ] in
  let results =
    List.map
      (fun name ->
        let r = run_workload ~seed ~seconds ~trace name in
        report ~name ~seed ~seconds ~trace r;
        (name, r))
      names
  in
  let metrics =
    match results with
    | [ (_, r) ] -> reported ~trace r
    | _ ->
      List.concat_map
        (fun (name, r) ->
          List.map (fun x -> { x with name = name ^ "." ^ x.name }) (reported ~trace r))
        results
  in
  let all f = List.for_all (fun (_, r) -> f r) results in
  let sum f = List.fold_left (fun n (_, r) -> n + f r) 0 results in
  print_endline
    (json
       ~correct:(all (fun r -> r.correct))
       ~attempted:(sum (fun r -> r.attempted))
       ~failed:(sum (fun r -> r.failed))
       metrics)

let usage () =
  prerr_endline
    "usage: avqbench --workload (served_hot|analytic_cold|ingest_mv|all) --seed N \
     --seconds S --trace (0|1)\n       avqbench --self-test";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let self_test = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--self-test" :: rest -> self_test := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self_test then exit (Selftest.run ~workloads ~end_to_end ~per_layer)
  else
    match (!seed, !seconds, !trace) with
    | Some seed, Some seconds, Some trace
      when seconds > 0. && (List.mem !workload workloads || !workload = "all") ->
      main ~workload:!workload ~seed ~seconds ~trace
    | _ -> usage ()
