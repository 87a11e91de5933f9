type config = {
  algorithm : Optimizer.algorithm;
  work_mem : int;
  paper : Paper_opt.options;
  max_entries : int;
  max_bytes : int;
  recost_ratio : float;
  cache_enabled : bool;
  executor : Executor.engine;
  statement_timeout_ms : float option;
  spill_quota_pages : int option;
  dop : int;
}

let default_config =
  {
    algorithm = Optimizer.Paper;
    work_mem = 32;
    paper = Paper_opt.default_options;
    max_entries = 128;
    max_bytes = 4 * 1024 * 1024;
    recost_ratio = 10.0;
    cache_enabled = true;
    executor = `Batch;
    statement_timeout_ms = None;
    spill_quota_pages = None;
    dop = 1;
  }

(* Shared across every session and worker of one service: the cache sits
   behind [lock] (find→optimize→add is atomic, so a template is optimized
   once per (fingerprint, algo, work_mem) no matter how many workers race
   on it); the counters are atomics, readable without the lock. *)
type t = {
  cat : Catalog.t;
  cfg : config;
  cache : Plan_cache.t;
  mviews : Matview.t;
  lock : Sync.t;
  calls : Sync.Counter.t;
  hits : Sync.Counter.t;
  rebinds : Sync.Counter.t;
  misses : Sync.Counter.t;
  recost_fallbacks : Sync.Counter.t;
  rebind_conflicts : Sync.Counter.t;
  stale_hits : Sync.Counter.t;
  opt_ms_total : Sync.Fsum.t;
  opt_ms_saved : Sync.Fsum.t;
  (* Typed-error tally, one counter per {!Avq_error} kind (see [err_slot]).
     Bumped by [finish] when a statement fails with a typed error; a
     failed statement still counts one [calls], so
     hits + rebinds + misses + recost_fallbacks + rebind_conflicts +
     uncached = calls holds with or without failures (errors strike during
     execution, after the planning source was decided). *)
  errs : Sync.Counter.t array;
  (* Observability: the registry aggregates every counter family this
     service touches (buffer pool, plan cache, errors, statements, pool);
     the tracer, when set, receives one span tree per executed statement. *)
  metrics : Metrics.t;
  (* Per-fingerprint cumulative statement statistics (always on): [finish]
     records exactly one observation per statement, and
     [avq_statements_total] is the store's observation count. *)
  stats : Stmt_stats.t;
  mutable tracer : Trace.tracer option;
  stmt_ms : Metrics.Histogram.t;
  stmt_io : Metrics.Histogram.t;
  (* Durability: when a WAL is attached every mutating statement appends its
     record (and fsyncs per the writer's mode) BEFORE touching the catalog,
     and seals it with a commit record after — so recovery replays exactly
     the acknowledged statements.  All WAL state is guarded by [lock], like
     the catalog it journals. *)
  mutable wal : Wal.writer option;
  mutable wal_dir : string option;
  mutable wal_checkpoint_bytes : int option;
  mutable checkpoints_done : int;
}

let n_err_kinds = 7

let err_slot : Avq_error.t -> int = function
  | Avq_error.Io_fault _ -> 0
  | Avq_error.Corruption _ -> 1
  | Avq_error.Resource_exceeded _ -> 2
  | Avq_error.Timeout _ -> 3
  | Avq_error.Cancelled -> 4
  | Avq_error.Bad_statement _ -> 5
  | Avq_error.Unavailable _ -> 6

let err_kind_label = function
  | 0 -> "io_fault"
  | 1 -> "corruption"
  | 2 -> "resource_exceeded"
  | 3 -> "timeout"
  | 4 -> "cancelled"
  | 5 -> "bad_statement"
  | _ -> "unavailable"

let record_error t e = Sync.Counter.incr t.errs.(err_slot e)

(* Expose every pre-existing counter family through the registry as
   sampled-at-export instruments, so the exports unify state that keeps
   living where it is cheap to update (storage atomics, cache counters
   behind the service lock). *)
let register_metrics t =
  let m = t.metrics in
  let st = Catalog.storage t.cat in
  let fi f = fun () -> float_of_int (f ()) in
  Metrics.fn_counter m "avq_bufferpool_reads_total"
    ~help:"Physical page reads (buffer-pool misses)"
    (fi (fun () -> (Storage.io_stats st).Buffer_pool.reads));
  Metrics.fn_counter m "avq_bufferpool_writes_total"
    ~help:"Physical page writes (dirty evictions + flushes)"
    (fi (fun () -> (Storage.io_stats st).Buffer_pool.writes));
  Metrics.fn_counter m "avq_bufferpool_hits_total"
    ~help:"Page accesses served from the pool"
    (fi (fun () -> (Storage.io_stats st).Buffer_pool.hits));
  Metrics.gauge m "avq_storage_temps_live"
    ~help:"Temp heap files currently allocated"
    (fi (fun () -> Storage.live_temps st));
  Metrics.fn_counter m "avq_faults_injected_total"
    ~help:"Typed faults raised by the installed fault plan"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.injected));
  Metrics.fn_counter m "avq_faults_retried_total"
    ~help:"Retry attempts spent on faulted reads"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.retried));
  Metrics.fn_counter m "avq_faults_recovered_total"
    ~help:"Reads that succeeded after at least one retry"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.recovered));
  Metrics.fn_counter m "avq_faults_exhausted_total"
    ~help:"Reads that failed after the whole retry budget"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.exhausted));
  let c name help ctr =
    Metrics.fn_counter m name ~help (fi (fun () -> Sync.Counter.get ctr))
  in
  c "avq_plancache_calls_total" "Plan/execute requests" t.calls;
  c "avq_plancache_hits_total" "Cached plans served as-is" t.hits;
  c "avq_plancache_rebinds_total" "Cached templates re-bound and served"
    t.rebinds;
  c "avq_plancache_misses_total" "Optimizations with no usable entry" t.misses;
  c "avq_plancache_recost_fallbacks_total"
    "Re-bound plans rejected by the recost guard" t.recost_fallbacks;
  c "avq_plancache_rebind_conflicts_total" "Ambiguous re-bindings"
    t.rebind_conflicts;
  c "avq_plancache_stale_hits_total" "Plans served under a wrong epoch (must stay 0)"
    t.stale_hits;
  let cache_counters () = Sync.protect t.lock (fun () -> Plan_cache.counters t.cache) in
  Metrics.fn_counter m "avq_plancache_evictions_total"
    ~help:"Entries dropped to stay within capacity"
    (fi (fun () -> (cache_counters ()).Plan_cache.evictions));
  Metrics.fn_counter m "avq_plancache_invalidations_total"
    ~help:"Entries dropped for a stale epoch or by invalidate_all"
    (fi (fun () -> (cache_counters ()).Plan_cache.invalidations));
  Metrics.gauge m "avq_plancache_entries"
    ~help:"Current plan-cache population"
    (fi (fun () -> (cache_counters ()).Plan_cache.entries));
  Metrics.gauge m "avq_plancache_bytes"
    ~help:"Current plan-cache size (bytes-ish)"
    (fi (fun () -> (cache_counters ()).Plan_cache.bytes));
  let mc name help f =
    Metrics.fn_counter m name ~help
      (fi (fun () -> f (Matview.stats t.mviews)))
  in
  mc "avq_matview_rewrite_attempts_total"
    "Optimizations that considered at least one materialized view"
    (fun s -> s.Matview.attempts);
  mc "avq_matview_rewrite_hits_total"
    "Plans answered from a materialized view (cost-chosen)"
    (fun s -> s.Matview.hits);
  mc "avq_matview_rewrite_cost_rejections_total"
    "View rewrites discarded because the base plan was cheaper"
    (fun s -> s.Matview.cost_rejections);
  mc "avq_matview_rewrite_stale_skips_total"
    "Optimizations whose only matching views were stale"
    (fun s -> s.Matview.stale_skips);
  mc "avq_matview_maintenance_deltas_total"
    "Incremental maintenance batches folded into extents"
    (fun s -> s.Matview.deltas);
  mc "avq_matview_maintenance_rows_total"
    "Base rows absorbed by incremental maintenance"
    (fun s -> s.Matview.delta_rows);
  mc "avq_matview_refreshes_total" "Full REFRESH recomputations"
    (fun s -> s.Matview.refreshes);
  Metrics.gauge m "avq_matviews" ~help:"Live materialized views"
    (fi (fun () -> List.length (Matview.views t.mviews)));
  for i = 0 to Array.length t.errs - 1 do
    Metrics.fn_counter m "avq_errors_total"
      ~help:"Failed statements by typed-error kind"
      ~labels:[ ("kind", err_kind_label i) ]
      (fi (fun () -> Sync.Counter.get t.errs.(i)))
  done;
  Metrics.fn_counter m "avq_slow_statements_total"
    ~help:"Statements at or above the tracer's slow-ms threshold" (fun () ->
      match t.tracer with
      | Some tr -> float_of_int (Trace.slow_statements tr)
      | None -> 0.);
  Metrics.fn_counter m "avq_trace_spans_total"
    ~help:"Spans emitted by the statement tracer" (fun () ->
      match t.tracer with
      | Some tr -> float_of_int (Trace.spans_emitted tr)
      | None -> 0.);
  Metrics.fn_counter m "avq_statements_total"
    ~help:"Statements executed (successful or not)"
    (fi (fun () -> Stmt_stats.recorded t.stats));
  Stmt_stats.register_metrics t.stats m

let create ?(config = default_config) ?mviews cat =
  if config.recost_ratio < 1.0 then
    invalid_arg "Service.create: recost_ratio < 1.0";
  let metrics = Metrics.create () in
  let t =
    {
      cat;
      cfg = config;
      cache =
        Plan_cache.create ~max_entries:config.max_entries
          ~max_bytes:config.max_bytes ();
      mviews = (match mviews with Some m -> m | None -> Matview.create ());
      lock = Sync.create ();
      calls = Sync.Counter.create ();
      hits = Sync.Counter.create ();
      rebinds = Sync.Counter.create ();
      misses = Sync.Counter.create ();
      recost_fallbacks = Sync.Counter.create ();
      rebind_conflicts = Sync.Counter.create ();
      stale_hits = Sync.Counter.create ();
      opt_ms_total = Sync.Fsum.create ();
      opt_ms_saved = Sync.Fsum.create ();
      errs = Array.init n_err_kinds (fun _ -> Sync.Counter.create ());
      metrics;
      stats = Stmt_stats.create ();
      tracer = None;
      stmt_ms =
        Metrics.histogram metrics "avq_statement_ms"
          ~help:"Successful statement latency, planning + execution (ms)"
          ~buckets:Metrics.Histogram.latency_ms_buckets;
      stmt_io =
        Metrics.histogram metrics "avq_statement_io_pages"
          ~help:"Page IO (reads + writes) per successful statement"
          ~buckets:Metrics.Histogram.io_pages_buckets;
      wal = None;
      wal_dir = None;
      wal_checkpoint_bytes = None;
      checkpoints_done = 0;
    }
  in
  register_metrics t;
  t

(* ---- durability ---- *)

let register_wal_metrics t w recovery =
  let m = t.metrics in
  let ws f = fun () -> float_of_int (f (Wal.stats w)) in
  Metrics.fn_counter m "avq_wal_records_total"
    ~help:"WAL records appended since attach" (ws (fun s -> s.Wal.records));
  Metrics.fn_counter m "avq_wal_commits_total"
    ~help:"Commit records appended (statements acknowledged durable)"
    (ws (fun s -> s.Wal.commits));
  Metrics.fn_counter m "avq_wal_fsyncs_total"
    ~help:"fsync calls issued by the WAL writer" (ws (fun s -> s.Wal.fsyncs));
  Metrics.fn_counter m "avq_wal_group_deferred_total"
    ~help:"Commits whose fsync was deferred to a group window"
    (ws (fun s -> s.Wal.deferred));
  Metrics.fn_counter m "avq_wal_truncations_total"
    ~help:"Post-checkpoint WAL truncations" (ws (fun s -> s.Wal.truncations));
  Metrics.gauge m "avq_wal_bytes" ~help:"Current WAL size on disk"
    (ws (fun s -> s.Wal.bytes));
  Metrics.fn_counter m "avq_checkpoints_total"
    ~help:"Checkpoints written (size-triggered, \\checkpoint, or drain)"
    (fun () -> float_of_int t.checkpoints_done);
  match recovery with
  | None -> ()
  | Some (r : Recovery.stats) ->
    let g name help v = Metrics.gauge m name ~help (fun () -> v) in
    g "avq_recovery_replayed" "Committed WAL records replayed at startup"
      (float_of_int r.Recovery.replayed);
    g "avq_recovery_skipped"
      "WAL records skipped at startup (checkpointed or uncommitted)"
      (float_of_int r.Recovery.skipped);
    g "avq_recovery_torn_tail" "1 if the WAL ended in a torn record"
      (if r.Recovery.torn then 1. else 0.);
    g "avq_recovery_tables_restored" "Tables restored from the checkpoint"
      (float_of_int r.Recovery.tables_restored);
    g "avq_recovery_matviews_restored"
      "Materialized views restored from the checkpoint"
      (float_of_int r.Recovery.matviews_restored);
    g "avq_recovery_duration_ms" "Startup recovery wall time"
      r.Recovery.duration_ms

let attach_wal t ~data_dir ?checkpoint_bytes ?recovery writer =
  t.wal <- Some writer;
  t.wal_dir <- Some data_dir;
  t.wal_checkpoint_bytes <- checkpoint_bytes;
  register_wal_metrics t writer recovery

let wal t = t.wal

let checkpoint_locked t =
  match t.wal, t.wal_dir with
  | Some w, Some dir ->
    ignore (Wal.append w Wal.Checkpoint_begin);
    Wal.flush w;
    let last = Wal.last_lsn w in
    let bytes = Checkpoint.write ~dir ~last_lsn:last t.cat t.mviews in
    ignore (Wal.append w (Wal.Checkpoint_end { ckpt_lsn = last }));
    Wal.truncate w;
    t.checkpoints_done <- t.checkpoints_done + 1;
    Printf.sprintf "CHECKPOINT (%d bytes, through lsn %Ld)" bytes last
  | _ -> "CHECKPOINT skipped: no data directory attached"

let checkpoint t = Sync.protect t.lock (fun () -> checkpoint_locked t)

(* Size-triggered checkpointing, checked after each committed mutation
   (lock already held). *)
let maybe_checkpoint_locked t =
  match t.wal, t.wal_checkpoint_bytes with
  | Some w, Some limit when Wal.size w >= limit ->
    ignore (checkpoint_locked t)
  | _ -> ()

let wal_append_locked t record =
  match t.wal with Some w -> Some (Wal.append w record) | None -> None

let wal_commit_locked t lsn_opt =
  match t.wal, lsn_opt with
  | Some w, Some lsn ->
    Wal.commit w lsn;
    maybe_checkpoint_locked t
  | _ -> ()

let catalog t = t.cat
let config t = t.cfg

(* Core-aware default dop: divide the cores the runtime recommends among
   the pool workers that will run statements concurrently, never below 1.
   One worker gets every core for its morsel pipeline; N workers share. *)
let auto_dop ~workers =
  let cores = Domain.recommended_domain_count () in
  max 1 (cores / max 1 workers)

(* Per-session overrides of the service-wide statement knobs ([None] =
   inherit the config).  Carried per call so one shared service (and one
   shared plan cache — dop and work_mem are part of the cache key) can
   serve sessions with different SET values. *)
type session_limits = {
  sl_timeout_ms : float option;
  sl_spill_quota : int option;
  sl_dop : int option;
  sl_work_mem : int option;
  sl_sid : int option;  (* server session id, for slow-log / stats joins *)
}

let no_limits =
  { sl_timeout_ms = None; sl_spill_quota = None; sl_dop = None;
    sl_work_mem = None; sl_sid = None }
let matviews t = t.mviews
let metrics t = t.metrics
let stats_store t = t.stats
let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

type stmt = {
  squery : Block.query;
  template : string;
  fp : Fingerprint.t;
  base_params : Value.t list;
  parse_ms : float;  (* lex + parse + bind time (0 for prepare_query) *)
  canon_ms : float;  (* canonicalize + fingerprint time *)
}

let make_stmt ~parse_ms query =
  let t0 = Unix.gettimeofday () in
  let template = Canon.serialize query in
  let fp = Fingerprint.of_string template in
  {
    squery = query;
    template;
    fp;
    base_params = Canon.params query;
    parse_ms;
    canon_ms = (Unix.gettimeofday () -. t0) *. 1000.;
  }

let prepare_query _t query = make_stmt ~parse_ms:0. query

let prepare t sql =
  let t0 = Unix.gettimeofday () in
  (* Queries over the system views read a snapshot taken just before they
     are bound: re-materialize under the statement lock, then bind against
     the refreshed catalog.  The textual trigger over-approximates, which
     only costs an unneeded refresh. *)
  if Sysview.references_system_view sql then
    Sync.protect t.lock (fun () ->
        Sysview.refresh t.cat ~stats:t.stats ~mviews:t.mviews);
  let query = Binder.bind_sql t.cat sql in
  let parse_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  make_stmt ~parse_ms query

let stmt_fingerprint s = Fingerprint.to_hex s.fp
let stmt_params s = s.base_params

type source =
  | Hit
  | Hit_rebound
  | Miss
  | Recost_fallback
  | Rebind_conflict
  | Uncached

let source_label = function
  | Hit -> "hit"
  | Hit_rebound -> "hit-rebound"
  | Miss -> "miss"
  | Recost_fallback -> "recost-fallback"
  | Rebind_conflict -> "rebind-conflict"
  | Uncached -> "uncached"

type planned = {
  plan : Physical.t;
  est : Cost_model.est;
  source : source;
  opt_ms : float;
  plan_ms : float;
  search : Search_stats.t;
  rewrite : Matview.decision;
}

let algo_tag = function
  | Optimizer.Traditional -> "trad"
  | Optimizer.Greedy_conservative -> "greedy"
  | Optimizer.Paper -> "paper"

let cache_key ?work_mem ?dop t stmt =
  Printf.sprintf "%s/%s/%d/%d" (Fingerprint.to_hex stmt.fp)
    (algo_tag t.cfg.algorithm)
    (Option.value ~default:t.cfg.work_mem work_mem)
    (Option.value ~default:t.cfg.dop dop)

let options ?work_mem ?dop t =
  {
    Optimizer.default_options with
    algorithm = t.cfg.algorithm;
    work_mem = Option.value ~default:t.cfg.work_mem work_mem;
    paper = t.cfg.paper;
    dop = Option.value ~default:t.cfg.dop dop;
  }

let params_equal a b = List.for_all2 (fun x y -> Stdlib.compare x y = 0) a b

(* Bytes-ish footprint of a cache entry: dominated by the plan tree, which
   we approximate by its rendering, plus key, template and parameters. *)
let entry_bytes ~key ~template ~plan ~params =
  String.length (Physical.to_string plan)
  + String.length template + String.length key + (24 * List.length params) + 128

let optimize_and_cache ~work_mem ~dop t stmt ps query source =
  let r, decision =
    Matview.optimize ~options:(options ~work_mem ~dop t) t.cat t.mviews query
  in
  Sync.Fsum.add t.opt_ms_total r.Optimizer.time_ms;
  let key = cache_key ~work_mem ~dop t stmt in
  if t.cfg.cache_enabled then
    Plan_cache.add t.cache
      {
        Plan_cache.key;
        template = stmt.template;
        params = ps;
        plan = r.Optimizer.plan;
        est = r.Optimizer.est;
        search = r.Optimizer.search;
        opt_ms = r.Optimizer.time_ms;
        epoch = Catalog.epoch t.cat;
        mv = Matview.rewritten_view decision;
        bytes =
          entry_bytes ~key ~template:stmt.template ~plan:r.Optimizer.plan
            ~params:ps;
      };
  (r.Optimizer.plan, r.Optimizer.est, source, r.Optimizer.time_ms,
   r.Optimizer.search, decision)

let plan ?params ?(limits = no_limits) t stmt =
  let t0 = Unix.gettimeofday () in
  let work_mem = Option.value ~default:t.cfg.work_mem limits.sl_work_mem in
  let dop = Option.value ~default:t.cfg.dop limits.sl_dop in
  let optimize_and_cache = optimize_and_cache ~work_mem ~dop in
  let ps = Option.value ~default:stmt.base_params params in
  if List.length ps <> List.length stmt.base_params then
    invalid_arg "Service.plan: wrong number of parameters";
  let same_params = params_equal ps stmt.base_params in
  let query = if same_params then stmt.squery else Canon.substitute stmt.squery ps in
  Sync.Counter.incr t.calls;
  (* One critical section per call.  Holding the lock across the optimizer
     run serializes misses, which is exactly the pay-once semantics we want:
     a second worker racing on the same key blocks, then finds the entry and
     hits.  Cache-hit sections are microseconds. *)
  let plan, est, source, opt_ms, search, rewrite =
    Sync.protect t.lock (fun () ->
        if not t.cfg.cache_enabled then
          optimize_and_cache t stmt ps query Uncached
        else begin
          let epoch = Catalog.epoch t.cat in
          match Plan_cache.find t.cache (cache_key ~work_mem ~dop t stmt) ~epoch with
          | None ->
            Sync.Counter.incr t.misses;
            optimize_and_cache t stmt ps query Miss
          | Some entry
            when not (String.equal entry.Plan_cache.template stmt.template) ->
            (* 64-bit fingerprint collision: a different template landed on
               our key.  Treat as a miss (re-optimizing overwrites the
               entry); the colliding templates may thrash but can never
               serve each other's plans. *)
            Sync.Counter.incr t.misses;
            optimize_and_cache t stmt ps query Miss
          | Some entry ->
            if entry.Plan_cache.epoch <> epoch then begin
              (* unreachable: [find] filters stale epochs; belt and
                 suspenders so a stale plan can never be served silently. *)
              Sync.Counter.incr t.stale_hits;
              Sync.Counter.incr t.misses;
              optimize_and_cache t stmt ps query Miss
            end
            else if params_equal ps entry.Plan_cache.params then begin
              Sync.Counter.incr t.hits;
              Sync.Fsum.add t.opt_ms_saved entry.Plan_cache.opt_ms;
              (entry.Plan_cache.plan, entry.Plan_cache.est, Hit, 0.,
               entry.Plan_cache.search,
               Matview.From_cache entry.Plan_cache.mv)
            end
            else if entry.Plan_cache.mv <> None then begin
              (* A view-rewritten plan folded the view's covered predicates
                 into the extent's contents; re-binding it to different
                 parameters would silently answer the wrong query.  Always
                 re-optimize for new parameters instead. *)
              Sync.Counter.incr t.misses;
              optimize_and_cache t stmt ps query Miss
            end
            else begin
              match
                Plan_rebind.mapping ~old_params:entry.Plan_cache.params
                  ~new_params:ps
              with
              | None ->
                Sync.Counter.incr t.rebind_conflicts;
                optimize_and_cache t stmt ps query Rebind_conflict
              | Some pairs ->
                let plan' = Plan_rebind.rebind pairs entry.Plan_cache.plan in
                let est' = Cost_model.estimate t.cat ~work_mem plan' in
                if
                  est'.Cost_model.cost
                  <= (t.cfg.recost_ratio
                      *. entry.Plan_cache.est.Cost_model.cost)
                     +. 1e-6
                then begin
                  Sync.Counter.incr t.rebinds;
                  Sync.Fsum.add t.opt_ms_saved entry.Plan_cache.opt_ms;
                  (plan', est', Hit_rebound, 0., entry.Plan_cache.search,
                   Matview.From_cache None)
                end
                else begin
                  Sync.Counter.incr t.recost_fallbacks;
                  optimize_and_cache t stmt ps query Recost_fallback
                end
            end
        end)
  in
  {
    plan;
    est;
    source;
    opt_ms;
    plan_ms = (Unix.gettimeofday () -. t0) *. 1000.;
    search;
    rewrite;
  }

(* Where did the group-by land relative to the joins?  The paper's central
   plan-shape decision, surfaced as a trace attr on every plan span. *)
let group_placement plan =
  let rec walk ~below_join acc p =
    let acc =
      match p with
      | Physical.Hash_group _ | Physical.Sort_group _ ->
        (if below_join then `Early else `Late) :: acc
      | _ -> acc
    in
    let below_join =
      below_join
      ||
      match p with
      | Physical.Block_nl_join _ | Physical.Index_nl_join _
      | Physical.Hash_join _ | Physical.Merge_join _ -> true
      | _ -> false
    in
    List.fold_left (walk ~below_join) acc (Physical.inputs p)
  in
  match walk ~below_join:false [] plan with
  | [] -> "none"
  | ps ->
    if List.mem `Early ps && List.mem `Late ps then "mixed"
    else if List.mem `Early ps then "early"
    else "late"

(* Rebuild per-operator spans from the profile tree.  [t0] is the execute
   span's start: operator timing is measured by the profiler, not the
   tracer, so these are synthetic spans anchored at the execute start. *)
let rec emit_op_spans tr ~trace_id ~parent ~t0 node =
  let sid =
    Trace.emit tr ~trace_id ~parent ~t0 ~dur_ms:(Profile.total_ms node)
      ("op:" ^ node.Profile.pname)
      [
        ("rows_out", Trace.I node.Profile.rows_out);
        ("batches", Trace.I node.Profile.batches);
        ("reads", Trace.I (Profile.total_reads node));
        ("writes", Trace.I (Profile.total_writes node));
        ("hits", Trace.I (Profile.total_hits node));
        ("open_ms", Trace.F node.Profile.open_ms);
      ]
  in
  List.iter (emit_op_spans tr ~trace_id ~parent:sid ~t0) (Profile.children node)

let plan_span_attrs t p =
  [
    ("source", Trace.S (source_label p.source));
    ("algorithm", Trace.S (algo_tag t.cfg.algorithm));
    ("opt_ms", Trace.F p.opt_ms);
    ("est_rows", Trace.F p.est.Cost_model.rows);
    ("est_io", Trace.F p.est.Cost_model.cost);
    ("join_plans", Trace.I p.search.Search_stats.join_plans);
    ("group_plans", Trace.I p.search.Search_stats.group_plans);
    ("dp_entries", Trace.I p.search.Search_stats.entries);
    ("pullups", Trace.I p.search.Search_stats.pullups);
    ("group_placement", Trace.S (group_placement p.plan));
  ]
  @ (match Matview.rewritten_view p.rewrite with
    | Some v -> [ ("matview", Trace.S v) ]
    | None -> [])

let pp_analysis t ppf (p, report) =
  Format.fprintf ppf
    "plan: source=%s algorithm=%s opt_ms=%.2f plan_ms=%.2f@\n\
     search: join_plans=%d group_plans=%d dp_entries=%d pullups=%d \
     group_placement=%s@\n\
     %a"
    (source_label p.source) (algo_tag t.cfg.algorithm) p.opt_ms p.plan_ms
    p.search.Search_stats.join_plans p.search.Search_stats.group_plans
    p.search.Search_stats.entries p.search.Search_stats.pullups
    (group_placement p.plan) Explain_analyze.pp report

type error_stats = {
  io_faults : int;
  corruptions : int;
  resource_exceeded : int;
  timeouts : int;
  cancellations : int;
  bad_statements : int;
  unavailable : int;
}

let total_errors e =
  e.io_faults + e.corruptions + e.resource_exceeded + e.timeouts
  + e.cancellations + e.bad_statements + e.unavailable

type stats = {
  calls : int;
  hits : int;
  rebinds : int;
  misses : int;
  recost_fallbacks : int;
  rebind_conflicts : int;
  stale_hits : int;
  invalidations : int;
  evictions : int;
  entries : int;
  cache_bytes : int;
  opt_ms_total : float;
  opt_ms_saved : float;
  errors : error_stats;
}

let stats t =
  let c = Sync.protect t.lock (fun () -> Plan_cache.counters t.cache) in
  {
    calls = Sync.Counter.get t.calls;
    hits = Sync.Counter.get t.hits;
    rebinds = Sync.Counter.get t.rebinds;
    misses = Sync.Counter.get t.misses;
    recost_fallbacks = Sync.Counter.get t.recost_fallbacks;
    rebind_conflicts = Sync.Counter.get t.rebind_conflicts;
    stale_hits = Sync.Counter.get t.stale_hits;
    invalidations = c.Plan_cache.invalidations;
    evictions = c.Plan_cache.evictions;
    entries = c.Plan_cache.entries;
    cache_bytes = c.Plan_cache.bytes;
    opt_ms_total = Sync.Fsum.get t.opt_ms_total;
    opt_ms_saved = Sync.Fsum.get t.opt_ms_saved;
    errors =
      (let g i = Sync.Counter.get t.errs.(i) in
       {
         io_faults = g 0;
         corruptions = g 1;
         resource_exceeded = g 2;
         timeouts = g 3;
         cancellations = g 4;
         bad_statements = g 5;
         unavailable = g 6;
       });
  }

let hit_ratio s =
  if s.calls = 0 then 0.
  else float_of_int (s.hits + s.rebinds) /. float_of_int s.calls

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>plan cache: %d calls, %d hits + %d rebinds (ratio %.2f), %d misses@,\
     fallbacks: %d recost, %d rebind-conflict; stale hits: %d@,\
     entries: %d (%d bytes), evictions: %d, invalidations: %d@,\
     optimizer ms: %.1f spent, %.1f saved@,\
     errors: %d (%d io-fault, %d corruption, %d resource, %d timeout, \
     %d cancelled, %d bad-statement, %d unavailable)@]"
    s.calls s.hits s.rebinds (hit_ratio s) s.misses s.recost_fallbacks
    s.rebind_conflicts s.stale_hits s.entries s.cache_bytes s.evictions
    s.invalidations s.opt_ms_total s.opt_ms_saved (total_errors s.errors)
    s.errors.io_faults s.errors.corruptions s.errors.resource_exceeded
    s.errors.timeouts s.errors.cancellations s.errors.bad_statements
    s.errors.unavailable

let invalidate_all t = Sync.protect t.lock (fun () -> Plan_cache.clear t.cache)

(* ==== DML / materialized-view DDL ==== *)

let bad_stmt fmt =
  Format.kasprintf
    (fun m ->
      let e = Avq_error.Bad_statement m in
      Avq_error.error e)
    fmt

(* Execute one non-SELECT statement under the service lock (the lock also
   guards the matview registry, and holding it across the catalog mutation
   means no planner observes a half-applied write).  The epoch bump inside
   [Catalog.insert] / the extent swap invalidates cached plans on their next
   lookup.  Returns a human-readable completion tag. *)
let exec_dml t sql =
  match Parser.parse_script sql with
  | [ Sql_ast.S_insert { it_table; it_rows } ] ->
    if
      String.length it_table >= String.length Matview.backing_prefix
      && String.sub it_table 0 (String.length Matview.backing_prefix)
         = Matview.backing_prefix
    then bad_stmt "INSERT into a materialized-view extent is not allowed";
    if Sysview.is_system_table it_table then
      bad_stmt "INSERT into a system view is not allowed";
    let rows = Binder.bind_insert t.cat ~table:it_table it_rows in
    Sync.protect t.lock (fun () ->
        (* Write-ahead: the bound rows hit the log (and, in always mode,
           the disk) before the catalog mutates.  Replay re-runs
           [Catalog.insert], which re-synthesizes identical [_rid]s. *)
        let lsn =
          wal_append_locked t (Wal.Insert { table = it_table; rows })
        in
        let stored = Catalog.insert t.cat ~table:it_table rows in
        let versions_before =
          List.map
            (fun v -> (v.Matview.mv_name, v.Matview.mv_versions))
            (Matview.views t.mviews)
        in
        Matview.on_insert t.cat t.mviews ~table:it_table ~rows:stored;
        (* Informational markers for each view that absorbed the delta
           (its version vector moved); covered by the insert's commit. *)
        List.iter
          (fun v ->
            match List.assoc_opt v.Matview.mv_name versions_before with
            | Some old when old <> v.Matview.mv_versions ->
              ignore
                (wal_append_locked t
                   (Wal.Mv_delta
                      { view = v.Matview.mv_name; table = it_table;
                        rows = List.length stored }))
            | _ -> ())
          (Matview.views t.mviews);
        wal_commit_locked t lsn;
        Printf.sprintf "INSERT %d" (List.length stored))
  | [ Sql_ast.S_create_matview { mv_name; mv_body } ] ->
    let def = Binder.bind_matview_body t.cat ~name:mv_name mv_body in
    let sql_text = Pretty.select_to_string mv_body in
    Sync.protect t.lock (fun () ->
        let lsn =
          wal_append_locked t
            (Wal.Create_matview { name = mv_name; sql = sql_text })
        in
        let mv =
          Matview.create_view ~options:(options t) t.cat t.mviews
            ~name:mv_name ~sql:sql_text def
        in
        wal_commit_locked t lsn;
        Printf.sprintf "CREATE MATERIALIZED VIEW %s (%d groups)" mv_name
          (Matview.row_count t.cat mv))
  | [ Sql_ast.S_drop_matview name ] ->
    Sync.protect t.lock (fun () ->
        let lsn = wal_append_locked t (Wal.Drop_matview name) in
        Matview.drop t.cat t.mviews name;
        wal_commit_locked t lsn;
        Printf.sprintf "DROP MATERIALIZED VIEW %s" name)
  | [ Sql_ast.S_refresh_matview name ] ->
    Sync.protect t.lock (fun () ->
        let lsn = wal_append_locked t (Wal.Refresh_matview name) in
        Matview.refresh ~options:(options t) t.cat t.mviews name;
        (* The commit lands only after the refresh finished: an abort or
           crash mid-refresh leaves an uncommitted record that replay
           drops, so the recovered view is wholly old or wholly new. *)
        wal_commit_locked t lsn;
        let mv = Option.get (Matview.find t.mviews name) in
        Printf.sprintf "REFRESH MATERIALIZED VIEW %s (%d groups)" name
          (Matview.row_count t.cat mv))
  | _ -> bad_stmt "expected exactly one INSERT / MATERIALIZED VIEW statement"

(* ==== the statement record ==== *)

(* Everything one statement did, built exactly once per statement, on the
   success and the error path alike.  [run] fills it in as the statement
   gets through arming, preparing, planning and executing, so a failed
   statement still carries its plan and its partial IO; [finish] then feeds
   every observability surface from this one value. *)
type statement_record = {
  mutable r_fp : string;
  mutable r_query : string;
  mutable r_planned : planned option;  (* [None]: DML, or failed earlier *)
  r_dml : bool;
  r_sid : int option;
  r_dop : int;
  mutable r_t0 : float;
      (* Unix time the statement started: arming its limits.  Preparing is
         timed on its own ([r_parse_ms], [r_canon_ms]) and not counted in
         [r_total_ms], as a prepared statement pays it once, not per run. *)
  mutable r_parse_ms : float;
  mutable r_canon_ms : float;
  mutable r_exec_t0 : float;
  mutable r_exec_ms : float;
  mutable r_total_ms : float;
  mutable r_rows : int;
  mutable r_io : Buffer_pool.stats;
  mutable r_spill_bytes : int;
  mutable r_wal_bytes : int;
  mutable r_failed : bool;
  mutable r_error : Avq_error.t option;  (* [None] on failure: untyped bug *)
}

(* The one exception -> typed-error mapping.  Bad input from any stage
   (lexer, parser, binder, view definition, argument checks) is
   [Bad_statement]; engine failures are typed already; anything else is an
   engine bug and stays untyped. *)
let typed_error = function
  | Avq_error.Error e -> Some e
  | Binder.Bind_error m -> Some (Avq_error.Bad_statement ("bind: " ^ m))
  | Parser.Parse_error (m, off) ->
    Some (Avq_error.Bad_statement (Printf.sprintf "parse at %d: %s" off m))
  | Lexer.Lex_error (m, off) ->
    Some (Avq_error.Bad_statement (Printf.sprintf "lex at %d: %s" off m))
  | Matview.Error m | Invalid_argument m -> Some (Avq_error.Bad_statement m)
  | _ -> None

let pages io = io.Buffer_pool.reads + io.Buffer_pool.writes
let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.

(* The class a failed statement is filed under, in stats and traces. *)
let error_class r =
  if not r.r_failed then None
  else
    Some
      (match r.r_error with
       | Some e -> err_kind_label (err_slot e)
       | None -> "exception")

let trace_record t tr r prof =
  let trace_id = Trace.new_trace tr in
  let status = if r.r_failed then "error" else "ok" in
  let source =
    match r.r_planned with
    | Some p -> source_label p.source
    | None -> if r.r_dml then "dml" else "unplanned"
  in
  let root =
    Trace.emit tr ~trace_id ~status ~t0:r.r_t0 ~dur_ms:r.r_total_ms "statement"
      (("fingerprint", Trace.S r.r_fp) :: ("source", Trace.S source)
      :: (match error_class r with
         | Some c -> [ ("error", Trace.S c) ]
         | None -> []))
  in
  let child ?status ~t0 ~dur_ms name attrs =
    Trace.emit tr ~trace_id ~parent:root ?status ~t0 ~dur_ms name attrs
  in
  (* Prepare-time work is re-emitted per execution so every trace is
     self-contained, anchored at the statement start. *)
  ignore (child ~t0:r.r_t0 ~dur_ms:r.r_parse_ms "parse" []);
  ignore (child ~t0:r.r_t0 ~dur_ms:r.r_canon_ms "canonicalize" []);
  (match r.r_planned with
   | None -> ()
   | Some p ->
     let planned_at = r.r_exec_t0 -. (p.plan_ms /. 1000.) in
     ignore
       (child ~t0:planned_at ~dur_ms:p.plan_ms "plan" (plan_span_attrs t p));
     (match p.rewrite with
      | Matview.No_views -> ()
      | d ->
        ignore
          (child ~t0:r.r_exec_t0 ~dur_ms:0. "view_rewrite"
             (("decision", Trace.S (Matview.decision_to_string d))
             :: (match Matview.rewritten_view d with
                | Some v -> [ ("view", Trace.S v) ]
                | None -> []))));
     let eid =
       child ~status ~t0:r.r_exec_t0 ~dur_ms:r.r_exec_ms "execute"
         [ ("rows", Trace.I r.r_rows);
           ("reads", Trace.I r.r_io.Buffer_pool.reads);
           ("writes", Trace.I r.r_io.Buffer_pool.writes);
           ("hits", Trace.I r.r_io.Buffer_pool.hits);
           ("partial", Trace.B r.r_failed) ]
     in
     Option.iter
       (fun prof ->
         List.iter
           (emit_op_spans tr ~trace_id ~parent:eid ~t0:r.r_exec_t0)
           (Profile.roots prof))
       prof);
  Trace.note_slow tr ~fingerprint:r.r_fp ?sid:r.r_sid ~sql:r.r_query
    ~dur_ms:r.r_total_ms ~trace_id ()

(* Every observability surface reads the finished record: statement stats
   (whose observation count is [avq_statements_total]), the latency and IO
   histograms, the typed-error counters and the tracer. *)
let finish t r prof =
  Option.iter (record_error t) r.r_error;
  if not r.r_failed then begin
    Metrics.Histogram.observe t.stmt_ms r.r_total_ms;
    Metrics.Histogram.observe t.stmt_io (float_of_int (pages r.r_io))
  end;
  let source = Option.map (fun p -> p.source) r.r_planned in
  Stmt_stats.record t.stats ~fp:r.r_fp ~query:r.r_query ?error:(error_class r)
    ~rows:r.r_rows ~pages:(pages r.r_io) ~spill_bytes:r.r_spill_bytes
    ~cache_hit:(source = Some Hit) ~rebind:(source = Some Hit_rebound)
    ~mv_hit:
      (match r.r_planned with
       | Some p -> Matview.rewritten_view p.rewrite <> None
       | None -> false)
    ?placement:(Option.map (fun p -> group_placement p.plan) r.r_planned)
    ?q_error:
      (match r.r_planned with
       | Some p when not r.r_failed ->
         Some
           (Explain_analyze.q_error ~est:p.est.Cost_model.rows
              ~actual:(float_of_int r.r_rows))
       | _ -> None)
    ~wal_bytes:r.r_wal_bytes ~dop:r.r_dop ~ms:r.r_total_ms ();
  Option.iter (fun tr -> trace_record t tr r prof) t.tracer

type _ request =
  | Prepared : stmt * Value.t list option
      -> (planned * Relation.t * Buffer_pool.stats) request
  | Text : string -> (planned * Relation.t * Buffer_pool.stats) request
      (** prepared inside [run], so a parse or bind failure is recorded *)
  | Dml : string -> string request

(* The one execute path.  Arms the statement limits, then prepares (for
   [Text]), plans and executes a query -- under the profiler only when a
   tracer is installed or [analyze] asks for it -- or applies a DML
   statement.  Whatever happened, the record is finished exactly once and
   a failure comes back typed wherever {!typed_error} knows it. *)
let run (type a) ?cancel ?(limits = no_limits) ?(analyze = false) ?ctx t
    (request : a request) : statement_record * Profile.t option * (a, exn) result
    =
  (* Text that never gets prepared (and DML, which has no plan-cache
     template) is keyed on a fingerprint of the trimmed text. *)
  let of_text sql =
    let text = String.trim sql in
    (Fingerprint.to_hex (Fingerprint.of_string text), text)
  in
  let (fp, query), dml =
    match request with
    | Prepared (s, _) -> ((Fingerprint.to_hex s.fp, s.template), false)
    | Text sql -> (of_text sql, false)
    | Dml sql -> (of_text sql, true)
  in
  let t0 = Unix.gettimeofday () in
  let r =
    {
      r_fp = fp; r_query = query; r_planned = None; r_dml = dml;
      r_sid = limits.sl_sid;
      r_dop = (if dml then 1 else Option.value ~default:t.cfg.dop limits.sl_dop);
      r_t0 = t0; r_parse_ms = 0.; r_canon_ms = 0.; r_exec_t0 = t0;
      r_exec_ms = 0.; r_total_ms = 0.; r_rows = 0;
      r_io = { Buffer_pool.reads = 0; writes = 0; hits = 0 };
      r_spill_bytes = 0; r_wal_bytes = 0; r_failed = false; r_error = None;
    }
  in
  let prof = ref None in
  (* Session overrides take precedence over the service config; a work_mem
     override gets its own context (a context's budget is fixed at creation
     and shared with the cost model through the plan).  The deadline covers
     planning + execution, so a statement whose token was cancelled before
     it started never runs at all (the executor's initial check fires). *)
  let armed () =
    let ctx =
      match ctx, limits.sl_work_mem with
      | Some c, Some wm when wm <> Exec_ctx.work_mem c ->
        Exec_ctx.create ~work_mem:wm t.cat
      | Some c, _ -> c
      | None, wm ->
        Exec_ctx.create ~work_mem:(Option.value ~default:t.cfg.work_mem wm) t.cat
    in
    let ( |? ) o default = match o with Some _ -> o | None -> default in
    Exec_ctx.begin_statement ?cancel
      ?timeout_ms:(limits.sl_timeout_ms |? t.cfg.statement_timeout_ms)
      ?spill_quota:(limits.sl_spill_quota |? t.cfg.spill_quota_pages)
      ctx;
    ctx
  in
  let select ctx stmt params =
    r.r_fp <- Fingerprint.to_hex stmt.fp;
    r.r_query <- stmt.template;
    r.r_parse_ms <- stmt.parse_ms;
    r.r_canon_ms <- stmt.canon_ms;
    let p = plan ?params ~limits t stmt in
    r.r_planned <- Some p;
    r.r_exec_t0 <- Unix.gettimeofday ();
    let st = Exec_ctx.storage ctx in
    let before = Storage.io_snapshot st in
    let finally () =
      r.r_exec_ms <- ms_since r.r_exec_t0;
      r.r_io <- Storage.io_since st before;
      r.r_spill_bytes <- Exec_ctx.spill_pages ctx * Page.size
    in
    let rel =
      Fun.protect ~finally (fun () ->
          if analyze || t.tracer <> None then (
            match Executor.run_profiled_result ctx p.plan with
            | Ok (rel, _, pr) -> prof := Some pr; rel
            | Error (e, pr) -> prof := Some pr; raise e)
          else Executor.run ctx p.plan)
    in
    r.r_rows <- Relation.cardinality rel;
    (p, rel, r.r_io)
  in
  let work : unit -> a =
    match request with
    | Prepared (stmt, params) -> fun () -> select (armed ()) stmt params
    | Text sql ->
      fun () ->
        let stmt = prepare t sql in
        r.r_t0 <- Unix.gettimeofday ();
        select (armed ()) stmt None
    | Dml sql ->
      fun () ->
        let wal_bytes () =
          match t.wal with Some w -> (Wal.stats w).Wal.appended_bytes | None -> 0
        in
        let before = wal_bytes () in
        Fun.protect
          ~finally:(fun () -> r.r_wal_bytes <- wal_bytes () - before)
          (fun () -> exec_dml t sql)
  in
  let res =
    match work () with
    | v -> Ok v
    | exception e ->
      r.r_failed <- true;
      r.r_error <- typed_error e;
      Error (match r.r_error with Some te -> Avq_error.Error te | None -> e)
  in
  r.r_total_ms <- ms_since r.r_t0;
  finish t r !prof;
  (r, !prof, res)

let result (_, _, res) = match res with Ok v -> v | Error e -> raise e

let execute_on ctx ?cancel ?params ?limits t stmt =
  result (run ?cancel ?limits ~ctx t (Prepared (stmt, params)))

let execute ?params t stmt = result (run t (Prepared (stmt, params)))
let submit t sql = result (run t (Text sql))
let exec_statement t sql = result (run t (Dml sql))

(* EXPLAIN ANALYZE: the statement's own run, forced under the profiler,
   with the actuals zipped onto the plan next to the model's estimates.  A
   failing run still produces the (partial) annotated tree. *)
let explain_analyze ?params ?(limits = no_limits) t stmt =
  let work_mem = Option.value ~default:t.cfg.work_mem limits.sl_work_mem in
  let r, prof, res = run ~analyze:true ~limits t (Prepared (stmt, params)) in
  match r.r_planned, prof with
  | Some p, Some prof ->
    ( p,
      Result.map (fun (_, rel, _) -> rel) res,
      Explain_analyze.of_profile t.cat ~work_mem p.plan ~io:r.r_io
        ~wall_ms:r.r_exec_ms prof )
  | _ -> raise (Result.get_error res) (* planning failed: nothing ran *)

let render_matviews t =
  Sync.protect t.lock (fun () ->
      match Matview.views t.mviews with
      | [] -> "no materialized views"
      | vs ->
        let buf = Buffer.create 256 in
        List.iteri
          (fun i mv ->
            if i > 0 then Buffer.add_char buf '\n';
            let state =
              if Matview.is_fresh t.cat mv then "fresh"
              else "STALE (refresh required)"
            in
            let versions =
              String.concat ", "
                (List.map
                   (fun (tb, v) ->
                     let cur = Catalog.table_version t.cat tb in
                     if cur = v then Printf.sprintf "%s@%d" tb v
                     else Printf.sprintf "%s@%d (now %d)" tb v cur)
                   mv.Matview.mv_versions)
            in
            Buffer.add_string buf
              (Printf.sprintf "%s: %d groups, %s, absorbed %s\n  AS %s"
                 mv.Matview.mv_name
                 (Matview.row_count t.cat mv)
                 state versions mv.Matview.mv_sql))
          vs;
        Buffer.contents buf)

(* ==== concurrent worker pool ==== *)

module Pool = struct
  type service = t

  let protect = Sync.protect

  type outcome = (planned * Relation.t * Buffer_pool.stats, exn) result

  type future = {
    fm : Mutex.t;
    fc : Condition.t;
    mutable result : outcome option;
    fcancel : bool Atomic.t;
        (* shared with the executing worker's statement; setting it makes
           the job resolve to [Error (Avq_error.Error Cancelled)] at its
           next batch boundary (or immediately, if not yet started) *)
  }

  type task =
    | Stmt of stmt * Value.t list option * session_limits
    | Sql of string * session_limits

  type job = { task : task; fut : future }

  type t = {
    svc : service;
    qm : Mutex.t;
    qc : Condition.t;
    jobs : job Queue.t;
    mutable stopping : bool;
    mutable domains : unit Domain.t list;
    nworkers : int;
    executed : Sync.Counter.t;
  }

  let fulfil fut outcome =
    protect fut.fm (fun () ->
        fut.result <- Some outcome;
        Condition.broadcast fut.fc)

  let run_task svc ctx cancel = function
    | Stmt (stmt, params, limits) ->
      execute_on ctx ~cancel ?params ~limits svc stmt
    | Sql (sql, limits) -> result (run ~cancel ~limits ~ctx svc (Text sql))

  (* Worker body: one private [Exec_ctx] for the domain's whole lifetime
     (temps are cleaned per run; the context is just the temp registry and
     work_mem).  Every exception — planner, binder or executor — lands in
     the job's future; the worker itself never dies early. *)
  let worker pool () =
    let ctx = Exec_ctx.create ~work_mem:pool.svc.cfg.work_mem pool.svc.cat in
    let rec loop () =
      let job =
        protect pool.qm (fun () ->
            let rec wait () =
              if not (Queue.is_empty pool.jobs) then Some (Queue.pop pool.jobs)
              else if pool.stopping then None
              else begin
                Condition.wait pool.qc pool.qm;
                wait ()
              end
            in
            wait ())
      in
      match job with
      | None -> ()
      | Some { task; fut } ->
        let outcome =
          match run_task pool.svc ctx fut.fcancel task with
          | r -> Ok r
          | exception e -> Error e
        in
        Sync.Counter.incr pool.executed;
        fulfil fut outcome;
        loop ()
    in
    loop ()

  let create ?(workers = 4) svc =
    if workers < 1 then invalid_arg "Service.Pool.create: workers < 1";
    let pool =
      {
        svc;
        qm = Mutex.create ();
        qc = Condition.create ();
        jobs = Queue.create ();
        stopping = false;
        domains = [];
        nworkers = workers;
        executed = Sync.Counter.create ();
      }
    in
    pool.domains <-
      List.init workers (fun _ -> Domain.spawn (worker pool));
    (* Re-creating a pool over the same service re-points these at the new
       pool (same name+labels replaces in the registry). *)
    Metrics.gauge svc.metrics "avq_pool_workers"
      ~help:"Executor worker domains" (fun () -> float_of_int pool.nworkers);
    Metrics.gauge svc.metrics "avq_pool_queue_depth"
      ~help:"Jobs waiting in the pool queue" (fun () ->
        float_of_int (protect pool.qm (fun () -> Queue.length pool.jobs)));
    Metrics.fn_counter svc.metrics "avq_pool_executed_total"
      ~help:"Jobs completed by the pool (successfully or not)" (fun () ->
        float_of_int (Sync.Counter.get pool.executed));
    pool

  let workers t = t.nworkers
  let executed t = Sync.Counter.get t.executed
  let service t = t.svc

  let enqueue t task =
    let fut =
      {
        fm = Mutex.create ();
        fc = Condition.create ();
        result = None;
        fcancel = Atomic.make false;
      }
    in
    protect t.qm (fun () ->
        if t.stopping then
          invalid_arg "Service.Pool: submit after shutdown";
        Queue.push { task; fut } t.jobs;
        Condition.signal t.qc);
    fut

  let submit ?params ?(limits = no_limits) t stmt =
    enqueue t (Stmt (stmt, params, limits))

  let submit_sql ?(limits = no_limits) t sql = enqueue t (Sql (sql, limits))

  (* Cooperative: the executing worker observes the token at its next batch
     boundary; a job still queued fails its initial check instead of
     starting.  Either way the worker survives and the future resolves. *)
  let cancel fut = Atomic.set fut.fcancel true

  (* Non-blocking: lets a connection handler interleave "is it done yet?"
     with watching its client socket for disconnects. *)
  let peek fut = protect fut.fm (fun () -> fut.result <> None)

  let await fut =
    let outcome =
      protect fut.fm (fun () ->
          let rec wait () =
            match fut.result with
            | Some o -> o
            | None ->
              Condition.wait fut.fc fut.fm;
              wait ()
          in
          wait ())
    in
    match outcome with Ok r -> r | Error e -> raise e

  let shutdown t =
    let ds =
      protect t.qm (fun () ->
          if t.stopping then []
          else begin
            t.stopping <- true;
            Condition.broadcast t.qc;
            let ds = t.domains in
            t.domains <- [];
            ds
          end)
    in
    List.iter Domain.join ds

  let with_pool ?workers svc f =
    let pool = create ?workers svc in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
end
