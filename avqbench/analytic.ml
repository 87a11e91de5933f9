(* analytic_cold: one in-process caller in a closed loop through a
   1-worker [Service.Pool] at the default core-aware dop — the server's
   execution path without the network.  The catalog is a [Tpcd] catalog
   whose lineitem is several times the buffer pool.  Statements rotate
   through the paper's aggregate-view queries with seeded constants and
   fresh [Query_gen] Rich queries (distinct templates, so optimizer misses):
   pull-up/push-down enumeration, every executor operator, spills and
   buffer-pool misses do the work. *)

open Common

let customers = 300
let frames = 16
let workers = 1

let factors = [| 0.25; 0.5; 0.75; 1.0; 1.5 |]

(* The Rich templates come from one generator stream whatever the seed.
   Rich query costs are heavy-tailed (most take a few ms, one in a hundred
   takes 100-400 ms), so ten runs each drawing their own four hundred
   templates spread read_p99_ms and read_sps by 20% and 10% between seeds;
   with one stream they differ only through the seeded data their
   constants are drawn from.  Seed 7 is the stream in which the runaway
   BNL plan of NOTES.md was found (at a larger scale). *)
let rich_stream_seed = 7

(* Statement [i] of the stream: a Rich query every fourth statement, the
   three paper queries with seeded constants in between. *)
let next ~rich rng cat i =
  match i mod 4 with
  | 0 -> ("rich", Query_gen.generate ~complexity:`Rich rich cat)
  | 1 ->
    let brand = Rng.int rng 5 and factor = factors.(Rng.int rng (Array.length factors)) in
    ("small_quantity_parts", Tpcd.q_small_quantity_parts ~brand ~factor ())
  | 2 -> ("big_spenders", Tpcd.q_big_spenders ~nation:(Rng.int rng 10) ())
  | _ -> ("two_views", Tpcd.q_two_views ())

type env = { cat : Catalog.t; svc : Service.t; pool : Service.Pool.t }

let load ~seed () = Tpcd.load ~params:{ Tpcd.default_params with Tpcd.customers; frames; seed } ()

let setup ?(dop = Service.auto_dop ~workers) ~seed () =
  Lifecycle.reset ();
  let cat = load ~seed () in
  let svc = Service.create ~config:{ Service.default_config with Service.dop } cat in
  let pool = Service.Pool.create ~workers svc in
  (* warm-up: the paper queries once each, at their default constants *)
  List.iter
    (fun q -> ignore (Service.Pool.await (Service.Pool.submit pool (Service.prepare_query svc q))))
    [ Tpcd.q_small_quantity_parts (); Tpcd.q_big_spenders (); Tpcd.q_two_views () ];
  { cat; svc; pool }

let teardown env =
  Service.Pool.shutdown env.pool;
  Lifecycle.reset ()

let limits = { Service.no_limits with Service.sl_timeout_ms = Some statement_timeout_ms }

let is_miss (p : Service.planned) =
  match p.Service.source with
  | Service.Hit | Service.Hit_rebound -> false
  | Service.Miss | Service.Recost_fallback | Service.Rebind_conflict | Service.Uncached -> true

(* What one statement did, for the determinism self-check. *)
type outcome = {
  label : string;
  source : string;
  rows : int;
  reads : int;
  writes : int;
  search : Search_stats.t option;  (** on misses *)
}

type phase = {
  acc : Acc.t;
  busy_s : float;  (** time spent inside avq: the measured region *)
  calls0 : Service.stats;
  calls1 : Service.stats;
  recorded : int;
  total_calls : int;
  evicted : bool;
  spill_pages : float;
  outcomes : outcome list;
}

let spill_bytes svc =
  List.fold_left (fun n s -> n + s.Stmt_stats.spill_bytes) 0
    (Stmt_stats.snapshot (Service.stats_store svc))

(* Run statements until [budget] says stop.  Only the time inside avq —
   prepare, submit, await — is measured; generating the next query and
   keeping its answer for the check happen outside it.  In the traced
   phase each statement is replayed through [Service.execute_on] and
   [Executor.run_profiled] on the caller's own context. *)
let run_phase ?tr ~answers ~oracle ~rich ~rng ~counter ~budget env =
  let acc = Acc.create () in
  let store = Service.stats_store env.svc in
  let calls0 = Service.stats env.svc and rec0 = Stmt_stats.recorded store in
  let tot0 = Stmt_stats.total_calls store and ev0 = Stmt_stats.evictions store in
  let spill0 = spill_bytes env.svc in
  let work_mem = (Service.config env.svc).Service.work_mem in
  let ctx = Exec_ctx.create ~work_mem env.cat in
  let busy = ref 0. and outcomes = ref [] and n = ref 0 in
  while budget ~busy:!busy ~n:!n do
    let label, q = next ~rich rng env.cat !counter in
    incr counter;
    incr n;
    let stmt = Atomic.fetch_and_add Netload.stmt_ids 1 in
    Spans.record tr ~stmt "statement" (fun parent ->
        let t0 = now () in
        let attempt =
          try
            let st, prep_ms =
              Netload.timed tr ~stmt ~parent "sql.prepare" (fun () ->
                  Service.prepare_query env.svc q)
            in
            let (p, rel, io), disp_ms =
              Netload.timed tr ~stmt ~parent "service.dispatch" (fun () ->
                  Service.Pool.await (Service.Pool.submit ~limits env.pool st))
            in
            Ok (st, prep_ms, p, rel, io, disp_ms)
          with e -> Error e
        in
        let lat = ms_since t0 in
        busy := !busy +. (lat /. 1000.);
        Acc.incr acc "sent";
        match attempt with
        | Error e ->
          Acc.incr acc "failed";
          Acc.incr acc
            ("error."
            ^ match Avq_error.of_exn e with
              | Some te -> Avq_error.kind_label te
              | None -> Printexc.to_string e)
        | Ok (st, prep_ms, p, rel, io, disp_ms) ->
          let key =
            Printf.sprintf "%s/%s/%s" label (Service.stmt_fingerprint st)
              (String.concat "," (List.map Value.to_string (Service.stmt_params st)))
          in
          let got = rows_of_relation rel in
          (* A Rich query is a fresh template: its answer is checked now,
             against the oracle's own copy of the catalog so the pool this
             workload measures is not disturbed, and not kept.  The paper
             queries repeat: their answers are kept and checked at the end. *)
          let consistent =
            if String.equal label "rich" then (
              Acc.incr acc "rich_checked";
              match oracle_rows oracle ~work_mem q with
              | rows -> rows_equal rows got
              | exception _ -> false)
            else Answers.observe answers key ~query:(fun () -> q) got
          in
          if consistent then (
            Acc.add acc "read_ms" lat;
            Acc.add acc ("read_ms." ^ label) lat)
          else (
            Acc.incr acc "failed";
            Acc.incr acc "error.wrong-answer");
          account_io acc io;
          account_q_error acc ~est_rows:p.Service.est.Cost_model.rows
            ~actual:(Relation.cardinality rel);
          Acc.add acc "service.plan_ms" p.Service.plan_ms;
          let search =
            if is_miss p then begin
              let s = p.Service.search in
              Acc.add acc "core.optimize_ms" p.Service.opt_ms;
              Acc.add acc "core.join_plans" (float_of_int s.Search_stats.join_plans);
              Acc.add acc "core.dp_entries" (float_of_int s.Search_stats.entries);
              Acc.add acc "core.pullups" (float_of_int s.Search_stats.pullups);
              Some s
            end
            else None
          in
          outcomes :=
            { label; source = Service.source_label p.Service.source;
              rows = Relation.cardinality rel; reads = io.Buffer_pool.reads;
              writes = io.Buffer_pool.writes; search }
            :: !outcomes;
          (* the same statement in-process on this thread: execute_on for
             the dispatch split, a profiled run for operator self times.  A
             replay that fails (a statement that just made its deadline may
             miss it the second time) loses its layer sample and is
             counted; the statement itself already completed. *)
          if tr <> None then (
            Acc.add acc "sql.prepare_ms" prep_ms;
            try
              let (p', _, _), exec_on_ms =
                Netload.timed tr ~stmt ~parent "service.execute_on" (fun () ->
                    Service.execute_on ctx ~limits env.svc st)
              in
              Acc.add acc "service.dispatch_ms"
                (disp_ms -. p.Service.plan_ms -. (exec_on_ms -. p'.Service.plan_ms));
              let (_, prof), run_ms =
                Netload.timed tr ~stmt ~parent "exec.run" (fun () ->
                    Exec_ctx.begin_statement ~timeout_ms:statement_timeout_ms ctx;
                    Executor.run_profiled ~executor:(Service.config env.svc).Service.executor
                      ctx p.Service.plan)
              in
              Acc.add acc "exec.run_ms" run_ms;
              account_profile acc prof
            with _ -> Acc.incr acc "replay_failed"))
  done;
  {
    acc;
    busy_s = !busy;
    calls0;
    calls1 = Service.stats env.svc;
    recorded = Stmt_stats.recorded store - rec0;
    total_calls = Stmt_stats.total_calls store - tot0;
    evicted = Stmt_stats.evictions store > ev0;
    spill_pages = float_of_int (spill_bytes env.svc - spill0) /. float_of_int Page.size;
    outcomes = List.rev !outcomes;
  }

let for_seconds seconds ~busy ~n:_ = busy < seconds

(* The serial path for the determinism self-check: [n] statements at dop 1
   on a fresh catalog; what each did, in order. *)
let serial_outcomes ~seed ~n =
  let env = setup ~dop:1 ~seed () in
  let answers = Answers.create () in
  let ph =
    run_phase ~answers ~oracle:(load ~seed ()) ~rich:(Rng.create ~seed:rich_stream_seed)
      ~rng:(Rng.create ~seed) ~counter:(ref 0)
      ~budget:(fun ~busy:_ ~n:k -> k < n)
      env
  in
  teardown env;
  (ph.outcomes, ph.calls1.Service.misses - ph.calls0.Service.misses)

let run ~seed ~seconds ~trace =
  let env, setup_s = timed_setup ~setup:(setup ?dop:None ~seed) ~teardown in
  let answers = Answers.create () and oracle = load ~seed () in
  let rng = Rng.create ~seed and rich = Rng.create ~seed:rich_stream_seed and counter = ref 0 in
  let phase_s = if trace then seconds /. 2. else seconds in
  let a = run_phase ~answers ~oracle ~rich ~rng ~counter ~budget:(for_seconds phase_s) env in
  let tr = if trace then Some (Spans.create ()) else None in
  let b =
    Option.map
      (fun tr ->
        run_phase ~tr ~answers ~oracle ~rich ~rng ~counter ~budget:(for_seconds phase_s) env)
      tr
  in
  let work_mem = (Service.config env.svc).Service.work_mem in
  let wrong = Answers.check answers oracle ~work_mem in
  teardown env;
  let temps = Storage.live_temps (Catalog.storage env.cat) in
  let phases = a :: Option.to_list b in
  let total f = List.fold_left (fun n ph -> n + f ph) 0 phases in
  let attempted = total (fun ph -> Acc.count ph.acc "sent") in
  let failed = total (fun ph -> Acc.count ph.acc "failed") + wrong in
  let share_ok = ratio (attempted - failed) attempted in
  let reads = Acc.values a.acc "read_ms" in
  let traced = match b with Some b -> b.acc | None -> Acc.create () in
  let per_miss k = mean (Acc.values a.acc k) in
  let checks =
    [
      ("statements sent = statement records", Acc.count a.acc "sent" = a.recorded);
      ( "statements sent = total_calls delta (no eviction)",
        a.evicted || Acc.count a.acc "sent" = a.total_calls );
      ("cache calls = hits + rebinds + misses + fallbacks + conflicts", cache_sum_holds a.calls1);
      ("no stale plan served", a.calls1.Service.stale_hits = 0);
      ("answers match the oracle", wrong = 0);
      ("no live temps after the workload", temps = 0);
    ]
  in
  let lineitem = Catalog.table_exn env.cat "lineitem" in
  {
    correct = List.for_all snd checks;
    attempted;
    failed;
    e2e =
      [ m "setup_s" "s" setup_s ] @ read_metrics reads ~seconds:a.busy_s
      @ [ m "ok_share" "share" share_ok; m "peak_rss_mb" "MiB" (peak_rss_mb ()) ];
    layer =
      [
        m "failed_share" "share" (1. -. share_ok);
        m "read_samples" "count" (float_of_int (List.length reads));
        m "sql.prepare_ms" "ms" (median (Acc.values traced "sql.prepare_ms"));
        m "service.plan_ms" "ms" (median (Acc.values a.acc "service.plan_ms"));
        m "service.dispatch_ms" "ms" (median (Acc.values traced "service.dispatch_ms"));
        m "core.optimize_ms" "ms" (median (Acc.values a.acc "core.optimize_ms"));
        m "core.join_plans" "count" (per_miss "core.join_plans");
        m "core.dp_entries" "count" (per_miss "core.dp_entries");
        m "core.pullups" "count" (per_miss "core.pullups");
        m "exec.run_ms" "ms" (median (Acc.values traced "exec.run_ms"));
        m "exec.spill_pages" "pages" (a.spill_pages /. Float.max 1. (float_of_int (Acc.count a.acc "sent")));
      ]
      @ cache_metrics a.calls0 a.calls1 @ self_time_metrics traced @ io_metrics a.acc
      @ q_error_metrics a.acc
      @ trace_metrics ~untraced:reads ~traced:(Acc.values traced "read_ms") tr;
    info =
      [
        ("catalog", Netload.describe env.cat);
        ("frames", string_of_int frames);
        ( "lineitem_pages_per_frame",
          Printf.sprintf "%.2f"
            (float_of_int lineitem.Catalog.tstats.Stats.pages /. float_of_int frames) );
        ("callers", "1 (closed loop, in-process)");
        ("pool_workers", string_of_int workers);
        ("dop", string_of_int (Service.config env.svc).Service.dop);
        ("statement_timeout_ms", Printf.sprintf "%.0f" statement_timeout_ms);
        ("read_samples", string_of_int (List.length reads));
      ]
      @ List.map
          (fun l ->
            let xs = Acc.values a.acc ("read_ms." ^ l) in
            ( "read_ms." ^ l,
              Printf.sprintf "n=%d p50=%.3f p99=%.3f max=%.3f" (List.length xs)
                (percentile xs 50.) (percentile xs 99.) (List.fold_left Float.max 0. xs) ))
          [ "rich"; "small_quantity_parts"; "big_spenders"; "two_views" ]
      @ [
        ("measured_busy_s", Printf.sprintf "%.3f" a.busy_s);
        ( "traced_replays_failed",
          string_of_int (match b with Some b -> Acc.count b.acc "replay_failed" | None -> 0) );
        ( "answers_checked",
          Printf.sprintf "%d Rich, %d distinct paper-query answers"
            (List.fold_left (fun n ph -> n + Acc.count ph.acc "rich_checked") 0 phases)
            (Answers.distinct answers) );
        ("statements_failed", string_of_int failed);
      ]
      @ List.map
          (fun k -> (k, string_of_int (Acc.count a.acc k)))
          (List.filter (fun k -> String.starts_with ~prefix:"error." k) (Acc.keys a.acc));
    checks;
    spans = tr;
  }
