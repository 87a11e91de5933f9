(* Closed-loop TCP clients against an in-process [Server]: the load of the
   served_hot and ingest_mv workloads.

   Each connection runs on its own thread, sends its next statement only
   after the previous reply arrived, and times every statement from send
   to decoded reply.  In the traced phase each SELECT is then replayed
   in-process on the same catalog — [Service.prepare], [Service.plan] and
   [Executor.run_profiled] — and its request and reply go once more through
   [Protocol] and [Wire] over a local socket pair, so the round trip splits
   into codec, network/admission/poll gap and the in-process layers. *)

open Common

(* A first-come, first-served lock: connections that hold the same one
   never have statements in flight together.  The tickets keep a waiting
   connection from being overtaken by one that releases and asks again. *)
module Turn = struct
  type t = { m : Mutex.t; c : Condition.t; mutable next : int; mutable serving : int }

  let create () = { m = Mutex.create (); c = Condition.create (); next = 0; serving = 0 }

  let hold t f =
    Mutex.lock t.m;
    let ticket = t.next in
    t.next <- ticket + 1;
    while t.serving <> ticket do
      Condition.wait t.c t.m
    done;
    Mutex.unlock t.m;
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.serving <- t.serving + 1;
            Condition.broadcast t.c))
end

type stmt = {
  write : bool;
  key : string;  (** template and constants: equal keys, equal answers *)
  sql : string;  (** full statement text, for the in-process replay *)
  req : Protocol.request;  (** what goes on the wire: text or a prepared call *)
  rows : int;  (** rows an INSERT appends *)
}

type conn = {
  prepares : (string * string) list;  (** name, template with its first constants *)
  next : Rng.t -> stmt;
  seed : int;
  rate : float option;
      (** [None]: closed loop.  [Some r]: open loop, statement [k] is due
          [k / r] seconds into the phase and is timed from when it was due,
          so a stall also charges the statements queued behind it *)
  turn : Turn.t option;
      (** [Some t]: each statement, its reply and its traced replay run
          holding [t] *)
}

type env = {
  cat : Catalog.t;
  svc : Service.t;
  pool : Service.Pool.t;
  srv : Server.t;
}

let start ~workers ~dop ?mviews cat =
  Lifecycle.reset ();
  let config = { Service.default_config with Service.dop } in
  let svc = Service.create ~config ?mviews cat in
  let pool = Service.Pool.create ~workers svc in
  let srv = Server.start ~config:{ Server.default_config with Server.port = 0 } pool in
  { cat; svc; pool; srv }

let stop env =
  Server.stop env.srv;
  Service.Pool.shutdown env.pool;
  Lifecycle.reset ()

let send c s =
  match s.req with
  | Protocol.Query sql -> Client.query c sql
  | Protocol.Exec_prepared (name, params) -> Client.exec_prepared c name params
  | Protocol.Set _ | Protocol.Prepare _ | Protocol.Close -> invalid_arg "send"

let expect_ok what = function
  | Protocol.Result _ -> ()
  | Protocol.Err { kind; detail } -> failwith (Printf.sprintf "%s: %s: %s" what kind detail)
  | Protocol.Hello _ -> failwith (what ^ ": unexpected hello")

let connect ~port conn =
  let c = Client.connect ~port () in
  expect_ok "SET timeout_ms" (Client.set c "timeout_ms" (Printf.sprintf "%.0f" statement_timeout_ms));
  List.iter (fun (name, sql) -> expect_ok ("PREPARE " ^ name) (Client.prepare c name sql)) conn.prepares;
  c

(* ---- the traced replays ---- *)

let timed tr ~stmt ~parent name f =
  let t0 = now () in
  let r = Spans.record tr ~stmt ~parent name (fun _ -> f ()) in
  (r, ms_since t0)

(* Request and reply through the codec and the framing once more, over a
   local socket pair (payloads are far below the socket buffer, so one
   thread can write then read). *)
let replay_codec tr ~stmt ~parent (a, b) req reply =
  snd
    (timed tr ~stmt ~parent "net.codec" (fun () ->
         Wire.write_frame a (Protocol.encode_request req);
         ignore (Protocol.decode_request (Option.get (Wire.read_frame b)));
         Wire.write_frame b (Protocol.encode_reply reply);
         ignore (Protocol.decode_reply (Option.get (Wire.read_frame a)))))

let replay_read tr ~stmt ~parent acc env ctx s ~roundtrip_ms ~server_ms =
  let st, prep_ms = timed tr ~stmt ~parent "sql.prepare" (fun () -> Service.prepare env.svc s.sql) in
  let p, plan_ms = timed tr ~stmt ~parent "service.plan" (fun () -> Service.plan env.svc st) in
  (match p.Service.source with
  | Service.Hit | Service.Hit_rebound -> ()
  | Service.Miss | Service.Recost_fallback | Service.Rebind_conflict | Service.Uncached ->
    let se = p.Service.search in
    Acc.add acc "core.join_plans" (float_of_int se.Search_stats.join_plans);
    Acc.add acc "core.dp_entries" (float_of_int se.Search_stats.entries);
    Acc.add acc "core.pullups" (float_of_int se.Search_stats.pullups));
  let (rel, prof), run_ms =
    timed tr ~stmt ~parent "exec.run" (fun () ->
        Exec_ctx.begin_statement ~timeout_ms:statement_timeout_ms ctx;
        Executor.run_profiled ~executor:(Service.config env.svc).Service.executor ctx
          p.Service.plan)
  in
  account_profile acc prof;
  account_io acc (io_of_profile prof);
  account_q_error acc ~est_rows:p.Service.est.Cost_model.rows
    ~actual:(Relation.cardinality rel);
  Acc.add acc "sql.prepare_ms" prep_ms;
  Acc.add acc "service.plan_ms" plan_ms;
  Acc.add acc "exec.run_ms" run_ms;
  let in_process_ms = prep_ms +. plan_ms +. run_ms in
  Acc.add acc "net.gap_ms" (roundtrip_ms -. in_process_ms);
  (* server-side time not spent preparing, planning or executing:
     admission, the pool queue and the handler's wait for the result *)
  Acc.add acc "service.dispatch_ms" (server_ms -. in_process_ms)

(* A shadow catalog receives the same INSERT stream in the traced phase, so
   the catalog append and the view maintenance are timed apart without
   touching the served data. *)
type shadow = { scat : Catalog.t; smv : Matview.t }

let replay_write tr ~stmt ~parent acc sh s =
  match Parser.parse_script s.sql with
  | [ Sql_ast.S_insert { it_table; it_rows } ] ->
    let rows = Binder.bind_insert sh.scat ~table:it_table it_rows in
    let stored, ins_ms =
      timed tr ~stmt ~parent "catalog.insert" (fun () ->
          Catalog.insert sh.scat ~table:it_table rows)
    in
    let (), mv_ms =
      timed tr ~stmt ~parent "matview.maintain" (fun () ->
          Matview.on_insert sh.scat sh.smv ~table:it_table ~rows:stored)
    in
    Acc.add acc "catalog.insert_ms" ins_ms;
    Acc.add acc "matview.maintain_ms" mv_ms
  | _ -> invalid_arg "replay_write: not an INSERT"

(* ---- one phase of load ---- *)

let stmt_ids = Atomic.make 1

(* The first detail seen per error kind, for the report. *)
let first_errors : (string, string) Hashtbl.t = Hashtbl.create 8
let first_errors_m = Mutex.create ()

let note_error kind detail =
  Mutex.protect first_errors_m (fun () ->
      if not (Hashtbl.mem first_errors kind) then Hashtbl.replace first_errors kind detail)

(* Judge one reply: latencies, acknowledged rows, failures by kind and,
   when [answers] is given (data the load does not change), the answer
   against the first one kept for the same key.  A wrong answer counts as
   a failed statement. *)
let judge acc env answers s reply lat_ms =
  Acc.incr acc "sent";
  let fail ?(detail = "") kind =
    Acc.incr acc "failed";
    Acc.incr acc ("error." ^ kind);
    note_error kind (String.escaped detail ^ " <- " ^ s.sql)
  in
  match reply with
  | Protocol.Result { body; ms; _ } when s.write ->
    if String.equal body (Printf.sprintf "INSERT %d" s.rows) then begin
      Acc.add acc "write_ms" lat_ms;
      Acc.add acc "service.write_ms" ms;
      Acc.add acc "rows_acked" (float_of_int s.rows)
    end
    else fail "wrong-answer"
  | Protocol.Result { rows; body; ms; _ } ->
    let got = rows_of_body body in
    let consistent =
      List.length got = rows
      &&
      match answers with
      | None -> true
      | Some a ->
        Answers.observe a s.key ~query:(fun () -> Binder.bind_sql env.cat s.sql) got
    in
    if consistent then begin
      Acc.add acc "read_ms" lat_ms;
      Acc.add acc "net.server_ms" ms
    end
    else fail "wrong-answer"
  | Protocol.Err { kind; detail } -> fail ~detail kind
  | Protocol.Hello _ -> fail "protocol"

let client_loop ~deadline ~tr ~shadow acc env answers conn =
  let c = connect ~port:(Server.port env.srv) conn in
  let rng = Rng.create ~seed:conn.seed in
  let pair = Option.map (fun _ -> Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0) tr in
  let ctx = Exec_ctx.create ~work_mem:(Service.config env.svc).Service.work_mem env.cat in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Option.iter (fun (a, b) -> Unix.close a; Unix.close b) pair)
    (fun () ->
      let start = now () and k = ref 0 in
      while now () < deadline do
        let s = conn.next rng in
        let stmt = Atomic.fetch_and_add stmt_ids 1 in
        let due =
          match conn.rate with
          | None -> None
          | Some r ->
            let due = start +. (float_of_int !k /. r) in
            incr k;
            let wait = due -. now () in
            if wait > 0. then Unix.sleepf wait else Acc.add acc "late_ms" (-.wait *. 1000.);
            Some due
        in
        let exclusive f = match conn.turn with Some t -> Turn.hold t f | None -> f () in
        exclusive @@ fun () ->
        Spans.record tr ~stmt "statement" (fun parent ->
            let reply, roundtrip_ms = timed tr ~stmt ~parent "net.roundtrip" (fun () -> send c s) in
            let lat_ms = match due with Some d -> ms_since d | None -> roundtrip_ms in
            judge acc env answers s reply lat_ms;
            match (pair, reply) with
            | Some pair, Protocol.Result { ms = server_ms; _ } ->
              Acc.add acc "net.codec_ms" (replay_codec tr ~stmt ~parent pair s.req reply);
              if s.write then Option.iter (fun sh -> replay_write tr ~stmt ~parent acc sh s) shadow
              else begin
                Acc.add acc "net.roundtrip_ms" roundtrip_ms;
                replay_read tr ~stmt ~parent acc env ctx s ~roundtrip_ms ~server_ms
              end
            | _ -> ())
      done)

(* Counters of avq's own always-on records, read around a phase. *)
type marks = {
  admitted : int;
  rejected : int;
  recorded : int;
  total_calls : int;
  evictions : int;
  mv_hits : int;
  sstats : Service.stats;
}

let marks env =
  let st = Service.stats_store env.svc in
  {
    admitted = Server.admitted env.srv;
    rejected = Server.rejected env.srv;
    recorded = Stmt_stats.recorded st;
    total_calls = Stmt_stats.total_calls st;
    evictions = Stmt_stats.evictions st;
    mv_hits =
      List.fold_left (fun n s -> n + s.Stmt_stats.mv_hits) 0 (Stmt_stats.snapshot st);
    sstats = Service.stats env.svc;
  }

type phase = { acc : Acc.t; wall_s : float; before : marks; after : marks }

(* Run every connection's closed loop for [seconds]; a connection that dies
   is counted as a failed statement, and the phase still ends. *)
let run_phase ?tr ?shadow ?answers ~seconds env conns =
  let acc = Acc.create () in
  let before = marks env in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let clients () =
    List.iter Thread.join
      (List.map
         (fun conn ->
           Thread.create
             (fun () ->
               try client_loop ~deadline ~tr ~shadow acc env answers conn
               with e ->
                 Acc.incr acc "failed";
                 Acc.incr acc ("error.connection: " ^ Printexc.to_string e))
             ())
         conns)
  in
  clients ();
  let wall_s = now () -. t0 in
  { acc; wall_s; before; after = marks env }

(* The cross-checks against avq's own records: every statement sent was
   admitted or rejected, every admitted one recorded once in the statement
   statistics, and the plan-cache counters add up. *)
let cross_checks ph =
  let b = ph.before and a = ph.after in
  let sent = int_of_float (Acc.sum ph.acc "sent") in
  let s = a.sstats in
  [
    ("sent = admitted + rejected", sent = a.admitted - b.admitted + (a.rejected - b.rejected));
    ("admitted = statement records", a.admitted - b.admitted = a.recorded - b.recorded);
    ( "admitted = total_calls delta (no eviction)",
      a.evictions > b.evictions || a.admitted - b.admitted = a.total_calls - b.total_calls );
    ("cache calls = hits + rebinds + misses + fallbacks + conflicts", cache_sum_holds s);
    ("no stale plan served", s.Service.stale_hits = 0);
  ]

let attempted ph = Acc.count ph.acc "sent"
let failed ph = Acc.count ph.acc "failed"

(* Mean optimizer time per optimization, from the service's own total. *)
let optimize_ms ph =
  let b = ph.before.sstats and a = ph.after.sstats in
  let optimized =
    a.Service.misses - b.Service.misses + a.Service.recost_fallbacks - b.Service.recost_fallbacks
    + a.Service.rebind_conflicts - b.Service.rebind_conflicts
  in
  if optimized = 0 then 0.
  else (a.Service.opt_ms_total -. b.Service.opt_ms_total) /. float_of_int optimized

(* Median of the traced layer times. *)
let layer_times acc =
  List.map
    (fun k -> m k "ms" (median (Acc.values acc k)))
    [ "net.roundtrip_ms"; "net.gap_ms"; "net.codec_ms"; "net.server_ms"; "sql.prepare_ms";
      "service.plan_ms"; "service.dispatch_ms"; "exec.run_ms" ]

let describe cat =
  String.concat ", "
    (List.map
       (fun (t : Catalog.table) ->
         Printf.sprintf "%s %d rows / %d pages" t.Catalog.tname t.Catalog.tstats.Stats.card
           t.Catalog.tstats.Stats.pages)
       (List.filter
          (fun (t : Catalog.table) -> not (Sysview.is_system_table t.Catalog.tname))
          (Catalog.tables cat)))

(* The result of a served workload: end-to-end figures from the untraced
   phase [a], layer times from the traced phase [b], counters from [a]. *)
let summarize ~setup_s ~a ~b ~tr ~wrong ~temps ~info ~extra =
  let phases = a :: Option.to_list b in
  let total f = List.fold_left (fun n ph -> n + f ph) 0 phases in
  let attempted = total attempted and failed = total failed + wrong in
  let share_ok = ratio (attempted - failed) attempted in
  let reads_a = Acc.values a.acc "read_ms" and writes_a = Acc.values a.acc "write_ms" in
  let traced = match b with Some b -> b.acc | None -> Acc.create () in
  let e2e =
    [ m "setup_s" "s" setup_s ] @ read_metrics reads_a ~seconds:a.wall_s
    @ [ m "ok_share" "share" share_ok; m "peak_rss_mb" "MiB" (peak_rss_mb ()) ]
  in
  let layer =
    [
      m "failed_share" "share" (1. -. share_ok);
      m "read_samples" "count" (float_of_int (List.length reads_a));
      m "write_samples" "count" (float_of_int (List.length writes_a));
      m "write_p50_ms" "ms" (percentile writes_a 50.);
      m "write_p99_ms" "ms" (percentile writes_a 99.);
      m "write_rows_per_s" "rows/s" (Acc.sum a.acc "rows_acked" /. a.wall_s);
      m "write_late_p99_ms" "ms" (percentile (Acc.values a.acc "late_ms") 99.);
      m "service.write_ms" "ms" (median (Acc.values a.acc "service.write_ms"));
      m "matview.rewrite_share" "share"
        (ratio (a.after.mv_hits - a.before.mv_hits) (List.length reads_a));
      m "catalog.insert_ms" "ms" (median (Acc.values traced "catalog.insert_ms"));
      m "matview.maintain_ms" "ms" (median (Acc.values traced "matview.maintain_ms"));
    ]
    @ cache_metrics a.before.sstats a.after.sstats
    @ [ m "core.optimize_ms" "ms" (optimize_ms a);
        m "net.rejected" "count" (float_of_int (a.after.rejected - a.before.rejected)) ]
    @ List.map (fun k -> m k "count" (mean (Acc.values traced k)))
        [ "core.join_plans"; "core.dp_entries"; "core.pullups" ]
    @ layer_times traced @ self_time_metrics traced @ io_metrics traced
    @ q_error_metrics traced
    @ trace_metrics ~untraced:reads_a ~traced:(Acc.values traced "read_ms") tr
    @ extra
  in
  {
    correct = wrong = 0 && temps = 0 && List.for_all snd (cross_checks a);
    attempted;
    failed;
    e2e;
    layer;
    info =
      info
      @ [
          ("read_samples", string_of_int (List.length reads_a));
          ("write_samples", string_of_int (List.length writes_a));
          ("statements_failed", string_of_int failed);
        ]
      @ List.concat_map
          (fun ph ->
            List.map
              (fun k ->
                let kind = String.sub k 6 (String.length k - 6) in
                ( k,
                  Printf.sprintf "%.0f (first: %s)" (Acc.sum ph.acc k)
                    (Option.value ~default:"" (Hashtbl.find_opt first_errors kind)) ))
              (List.filter (fun k -> String.starts_with ~prefix:"error." k) (Acc.keys ph.acc)))
          phases;
    checks =
      cross_checks a
      @ [ ("answers match the oracle", wrong = 0); ("no live temps after the workload", temps = 0) ];
    spans = tr;
  }
