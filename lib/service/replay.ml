let strip_comments text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         let t = String.trim line in
         not (String.length t >= 2 && t.[0] = '-' && t.[1] = '-'))
  |> String.concat "\n"

let split_statements text =
  let text = strip_comments text in
  let out = ref [] in
  let buf = Buffer.create 128 in
  let flush () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then out := s :: !out
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && text.[!i] = ';' && text.[!i + 1] = ';' then begin
      flush ();
      i := !i + 2
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !out

type outcome =
  | Executed of Service.planned * int
  | Rendered of string
  | Failed of string

type line = { index : int; sql : string; outcome : outcome }

let describe_error e =
  match Service.typed_error e with
  | Some te -> Avq_error.to_string te
  | None -> raise e

(* Session directives and statement modifiers, classified before execution.
   [\metrics] dumps the registry; an [EXPLAIN ANALYZE] prefix runs the rest
   of the statement under profiling and renders the annotated tree. *)
type classified =
  | Directive_metrics of [ `Json | `Prometheus ]
  | Directive_stats of [ `Show | `Reset ]
  | Directive_matviews
  | Directive_checkpoint
  | Explain_analyze of string
  | Update of string
      (** INSERT or MATERIALIZED VIEW DDL: mutates shared state, so pool
          replay treats it as a barrier *)
  | Plain of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let strip_prefix ~prefix s =
  let n = String.length prefix and l = String.length s in
  if l > n && String.lowercase_ascii (String.sub s 0 n) = prefix && is_space s.[n]
  then Some (String.trim (String.sub s n (l - n)))
  else None

let classify sql =
  let t = String.trim sql in
  let lt = String.lowercase_ascii t in
  let has_prefix p =
    String.length lt > String.length p
    && String.sub lt 0 (String.length p) = p
    && is_space lt.[String.length p]
  in
  match lt with
  | "\\metrics" | "\\metrics json" -> Directive_metrics `Json
  | "\\metrics prom" | "\\metrics prometheus" -> Directive_metrics `Prometheus
  | "\\stats" -> Directive_stats `Show
  | "\\stats reset" -> Directive_stats `Reset
  | "\\dm" -> Directive_matviews
  | "\\checkpoint" -> Directive_checkpoint
  | _ ->
    if
      has_prefix "insert" || has_prefix "create materialized"
      || has_prefix "drop materialized"
      || has_prefix "refresh materialized"
    then Update t
    else (
      match strip_prefix ~prefix:"explain analyze" t with
      | Some rest when rest <> "" -> Explain_analyze rest
      | _ -> Plain t)

let run_metrics svc fmt_kind =
  let m = Service.metrics svc in
  match fmt_kind with
  | `Json -> Metrics.to_json m
  | `Prometheus -> Metrics.to_prometheus m

let run_stats svc = function
  | `Reset ->
    Stmt_stats.reset (Service.stats_store svc);
    "statement statistics reset"
  | `Show ->
    let st = Service.stats_store svc in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "tracked=%d recorded=%d evictions=%d\n"
         (Stmt_stats.tracked st) (Stmt_stats.recorded st)
         (Stmt_stats.evictions st));
    Buffer.add_string buf
      (Printf.sprintf "%-16s %6s %5s %10s %9s %9s %8s  %s\n" "fingerprint"
         "calls" "errs" "total_ms" "mean_ms" "p95_ms" "rows" "query");
    List.iter
      (fun (s : Stmt_stats.stat) ->
        let q =
          if String.length s.query > 48 then String.sub s.query 0 45 ^ "..."
          else s.query
        in
        Buffer.add_string buf
          (Printf.sprintf "%-16s %6d %5d %10.2f %9.3f %9.3f %8d  %s\n"
             s.fingerprint s.calls s.errors s.total_ms s.mean_ms s.p95_ms
             s.rows q))
      (Stmt_stats.top ~n:20 st);
    Buffer.contents buf

(* A failed EXPLAIN ANALYZE still has a (partial) rendered tree worth
   showing next to the error. *)
exception Analysis_failed of exn * string

let run_explain_analyze ?limits svc sql =
  let stmt = Service.prepare svc sql in
  let p, res, report = Service.explain_analyze ?limits svc stmt in
  let body = Format.asprintf "%a" (Service.pp_analysis svc) (p, report) in
  match res with
  | Ok _ -> body
  | Error e -> raise_notrace (Analysis_failed (e, body))

let explain_outcome svc sql =
  match run_explain_analyze svc sql with
  | body -> Rendered body
  | exception Analysis_failed (e, body) ->
    Failed (describe_error e ^ "\n" ^ body)
  | exception e -> Failed (describe_error e)

let run_update svc sql =
  match Service.exec_statement svc sql with
  | tag -> Rendered tag
  | exception e -> Failed (describe_error e)

(* One statement, synchronously on the service. *)
let run_one svc sql =
  match classify sql with
  | Directive_metrics kind -> Rendered (run_metrics svc kind)
  | Directive_stats kind -> Rendered (run_stats svc kind)
  | Directive_matviews -> Rendered (Service.render_matviews svc)
  | Directive_checkpoint -> Rendered (Service.checkpoint svc)
  | Explain_analyze rest -> explain_outcome svc rest
  | Update sql -> run_update svc sql
  | Plain sql -> (
    match Service.submit svc sql with
    | p, rel, _io -> Executed (p, Relation.cardinality rel)
    | exception e -> Failed (describe_error e))

(* A lifecycle drain (Ctrl-C / SIGTERM) stops the replay between
   statements: already-executed lines keep their outcomes, the rest are
   never started.  In-flight work is stopped by the lifecycle abort flag
   through the executor's own poll points, not from here. *)
let replay svc text =
  let rec go i acc = function
    | [] -> List.rev acc
    | _ :: _ when Lifecycle.draining () -> List.rev acc
    | sql :: rest ->
      go (i + 1) ({ index = i; sql; outcome = run_one svc sql } :: acc) rest
  in
  go 1 [] (split_statements text)

(* Pool replay: runs of consecutive read-only statements are submitted to
   the pool up front, then awaited in order — the report stays
   deterministic per-line while execution itself is concurrent.  Updates
   (INSERT, MATERIALIZED VIEW DDL) are barriers: an update runs alone,
   after every earlier statement has completed and before any later one is
   submitted, so concurrent readers never race a catalog mutation and every
   statement sees a well-defined database state.  Directives and EXPLAIN
   ANALYZE run synchronously at their position in the await sequence, so a
   [\metrics] line observes every earlier statement's effect (later ones in
   the same run may still be in flight on the workers). *)
let replay_pool pool text =
  let svc = Service.Pool.service pool in
  let results = ref [] in
  let pending = ref [] in
  let await_outcome = function
    | `Fut fut -> (
      match Service.Pool.await fut with
      | p, rel, _io -> Executed (p, Relation.cardinality rel)
      | exception e -> Failed (describe_error e))
    | `Sync (Directive_metrics kind) -> Rendered (run_metrics svc kind)
    | `Sync (Directive_stats kind) -> Rendered (run_stats svc kind)
    | `Sync Directive_matviews -> Rendered (Service.render_matviews svc)
    | `Sync (Explain_analyze rest) -> explain_outcome svc rest
    | `Sync (Plain _ | Update _ | Directive_checkpoint) -> assert false
  in
  let flush () =
    List.iter
      (fun (sql, job) -> results := (sql, await_outcome job) :: !results)
      (List.rev !pending);
    pending := []
  in
  List.iter
    (fun sql ->
      if not (Lifecycle.draining ()) then
        match classify sql with
        | Update u ->
          flush ();
          results := (sql, run_update svc u) :: !results
        (* A checkpoint snapshots the catalog and truncates the WAL — run it
           as a barrier too, with no statement in flight. *)
        | Directive_checkpoint ->
          flush ();
          results := (sql, Rendered (Service.checkpoint svc)) :: !results
        | Plain p ->
          pending := (sql, `Fut (Service.Pool.submit_sql pool p)) :: !pending
        | (Directive_metrics _ | Directive_stats _ | Directive_matviews
          | Explain_analyze _) as c ->
          pending := (sql, `Sync c) :: !pending)
    (split_statements text);
  flush ();
  List.mapi
    (fun i (sql, outcome) -> { index = i + 1; sql; outcome })
    (List.rev !results)

let first_line sql =
  match String.index_opt sql '\n' with
  | None -> sql
  | Some i -> String.sub sql 0 i ^ " ..."

let report fmt svc lines =
  List.iter
    (fun l ->
      match l.outcome with
      | Executed (p, rows) ->
        let mv =
          match Matview.rewritten_view p.Service.rewrite with
          | Some v -> Printf.sprintf "  [mv:%s]" v
          | None -> ""
        in
        Format.fprintf fmt "[%3d] %-15s %6d rows  est %10.1f  %6.2f ms  %s%s@."
          l.index
          (Service.source_label p.Service.source)
          rows p.Service.est.Cost_model.cost p.Service.plan_ms
          (first_line l.sql) mv
      | Rendered body ->
        Format.fprintf fmt "[%3d] %s@.%s@." l.index (first_line l.sql) body
      | Failed msg ->
        Format.fprintf fmt "[%3d] ERROR %s  %s@." l.index msg (first_line l.sql))
    lines;
  Format.fprintf fmt "@.%a@." Service.pp_stats (Service.stats svc)
