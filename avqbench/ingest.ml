(* ingest_mv: writes beside reads.  Two TCP connections to the served_hot
   server setup, with a WAL in a fresh data directory (group commit at the
   serve default window) and a materialized aggregate view on emp.  One
   connection streams multi-row INSERTs; the other reads GROUP BY queries,
   some answered from the view and some not.  Each insert bumps the catalog
   epoch (the plan cache re-optimizes), runs view maintenance and a WAL
   append; after the load the data directory is recovered with
   [Recovery.recover].

   The two connections take turns: a read is never in flight while an
   insert is.  A view-answered read that overlaps the view maintenance of
   an insert can fail, because [Catalog.replace_rows] drops the view's
   extent table before it adds the new one (defect 2 in NOTES.md); such
   failures come at random, about one statement in 2000, so no two runs
   would agree on them.  Once that swap is atomic, drop [turn] and the
   connections overlap again. *)

open Common

let workers = 2
let frames = 1024
let emps = 20_000

(* The writer is an open loop: a closed-loop writer appends thousands of
   statements a second and the table, and every read over it, would grow
   several-fold within one run.  At this rate each phase grows emp by a
   fifth.  An insert waits for the read in flight (about 10 ms, see the
   served poll floor in NOTES.md), so inserts come 25 ms apart: at 10 ms
   apart they queued behind the reads without end. *)
let inserts_per_s = 40.
let rows_per_insert = 10

(* [avq serve --wal-fsync group] with its default --wal-group-ms, and its
   default --checkpoint-bytes. *)
let wal_group_ms = 5.
let checkpoint_bytes = 4 * 1024 * 1024

let mv_sql =
  "CREATE MATERIALIZED VIEW mv_dept AS SELECT e.dno AS dno, COUNT(*) AS n, SUM(e.sal) AS s \
   FROM emp e GROUP BY e.dno"

(* Reads: two shapes the view answers (a residual only on its grouping
   column) and one it cannot (a predicate on age). *)
let reads =
  [|
    ( "mv_sum",
      (fun (_ : int) -> "SELECT e.dno AS dno, SUM(e.sal) AS s FROM emp e GROUP BY e.dno"),
      (0, 0) );
    ( "mv_count",
      Printf.sprintf
        "SELECT e.dno AS dno, COUNT(*) AS n FROM emp e WHERE e.dno < %d GROUP BY e.dno",
      (1, 50) );
    ( "base_avg_by_age",
      Printf.sprintf
        "SELECT e.dno AS dno, AVG(e.sal) AS a FROM emp e WHERE e.age > %d GROUP BY e.dno",
      (18, 65) );
  |]

let constants seed =
  let rng = Rng.create ~seed:(seed + 1) in
  Array.map (fun (_, _, (lo, hi)) -> Array.init 8 (fun _ -> Rng.in_range rng lo hi)) reads

let read_stmt label text =
  { Netload.write = false; key = label; sql = text; req = Protocol.Query text; rows = 0 }

let reader ?turn consts seed =
  {
    Netload.prepares = [];
    seed;
    rate = None;
    turn;
    next =
      (fun rng ->
        let t = Rng.int rng (Array.length reads) in
        let c = consts.(t).(Rng.int rng 8) in
        let label, sql, _ = reads.(t) in
        read_stmt (Printf.sprintf "%s/%d" label c) (sql c));
  }

let next_eno = Atomic.make 10_000_000

let writer ~turn seed =
  {
    Netload.prepares = [];
    seed;
    rate = Some inserts_per_s;
    turn = Some turn;
    next =
      (fun rng ->
        let row () =
          Printf.sprintf "(%d, %d, %d, %d)"
            (Atomic.fetch_and_add next_eno 1)
            (Rng.int rng 50) (Rng.in_range rng 1000 9000) (Rng.in_range rng 18 65)
        in
        let text =
          "INSERT INTO emp VALUES " ^ String.concat ", " (List.init rows_per_insert (fun _ -> row ()))
        in
        { Netload.write = true; key = "insert"; sql = text; req = Protocol.Query text;
          rows = rows_per_insert });
  }

let load ~seed () =
  Emp_dept.load ~params:{ Emp_dept.default_params with Emp_dept.emps; frames; seed } ()

let fsync_mode = Wal.Fsync_group wal_group_ms
let meta seed = Printf.sprintf "avqbench;db=emp_dept;emps=%d;seed=%d" emps seed

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

type env = { net : Netload.env; dir : string; wal : Wal.writer }

let dirs = ref 0

let setup ~seed ~out_dir () =
  incr dirs;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Printf.sprintf "%s/ingest-%d-%d" out_dir (Unix.getpid ()) !dirs in
  remove_tree dir;
  let cat, mviews, wal, _ =
    Recovery.recover ~data_dir:dir ~fsync_mode ~meta:(meta seed) ~seed:(load ~seed) ()
  in
  let net = Netload.start ~workers ~dop:(Service.auto_dop ~workers) ~mviews cat in
  Service.attach_wal net.Netload.svc ~data_dir:dir ~checkpoint_bytes wal;
  ignore (Service.exec_statement net.Netload.svc mv_sql);
  (* warm-up: every read shape once *)
  let c = Netload.connect ~port:(Server.port net.Netload.srv) (reader (constants seed) 0) in
  Array.iter (fun (_, sql, (lo, _)) -> Netload.expect_ok "warm-up" (Client.query c (sql lo))) reads;
  Client.close c;
  { net; dir; wal }

let close env =
  Netload.stop env.net;
  Wal.flush env.wal;
  Wal.close env.wal

let teardown env =
  close env;
  remove_tree env.dir

(* The traced phase replays every INSERT on a shadow copy of the catalog and
   its view, timing the catalog append and the view maintenance apart. *)
let shadow ~seed =
  let svc = Service.create (load ~seed ()) in
  ignore (Service.exec_statement svc mv_sql);
  { Netload.scat = Service.catalog svc; smv = Service.matviews svc }

let emp_rows cat = (Catalog.table_exn cat "emp").Catalog.tstats.Stats.card

let run ~seed ~seconds ~trace ~out_dir =
  let env, setup_s = timed_setup ~setup:(setup ~seed ~out_dir) ~teardown in
  let svc = env.net.Netload.svc in
  let consts = constants seed in
  let turn = Netload.Turn.create () in
  let conns = [ writer ~turn (seed * 7919); reader ~turn consts ((seed * 7919) + 1) ] in
  let w0 = Wal.stats env.wal in
  let phase_s = if trace then seconds /. 2. else seconds in
  let a = Netload.run_phase ~seconds:phase_s env.net conns in
  let w1 = Wal.stats env.wal in
  let tr = if trace then Some (Spans.create ()) else None in
  let b =
    Option.map
      (fun tr -> Netload.run_phase ~tr ~shadow:(shadow ~seed) ~seconds:phase_s env.net conns)
      tr
  in
  (* Quiescent check: with the writer stopped, every read shape at every
     constant, answered by the server (from the view where it matches),
     must equal the base-table answer of the oracle. *)
  let answers = Answers.create () in
  let c = Netload.connect ~port:(Server.port env.net.Netload.srv) (reader consts 0) in
  let unreadable = ref 0 in
  Array.iteri
    (fun t (label, sql, _) ->
      Array.iter
        (fun k ->
          let text = sql k in
          match Client.query c text with
          | Protocol.Result { body; _ } ->
            ignore
              (Answers.observe answers
                 (Printf.sprintf "%s/%d" label k)
                 ~query:(fun () -> Binder.bind_sql env.net.Netload.cat text)
                 (rows_of_body body))
          | _ -> incr unreadable)
        consts.(t))
    reads;
  Client.close c;
  let work_mem = (Service.config svc).Service.work_mem in
  let wrong = Answers.check answers env.net.Netload.cat ~work_mem + !unreadable in
  let acked =
    List.fold_left (fun n ph -> n + int_of_float (Acc.sum ph.Netload.acc "rows_acked")) 0
      (a :: Option.to_list b)
  in
  let live_rows = emp_rows env.net.Netload.cat in
  close env;
  let temps = Storage.live_temps (Catalog.storage env.net.Netload.cat) in
  let t0 = now () in
  let rcat, _, rwal, rstats =
    Recovery.recover ~data_dir:env.dir ~fsync_mode ~meta:(meta seed) ~seed:(load ~seed) ()
  in
  let recover_s = now () -. t0 in
  Wal.close rwal;
  let recovered_rows = emp_rows rcat in
  remove_tree env.dir;
  let commits = w1.Wal.commits - w0.Wal.commits in
  let rows_a = Acc.sum a.Netload.acc "rows_acked" in
  let r =
    Netload.summarize ~setup_s ~a ~b ~tr ~wrong ~temps
      ~info:
        [
          ("catalog", Netload.describe env.net.Netload.cat);
          ("frames", string_of_int frames);
          ("connections", "2 (1 writer, 1 reader), taking turns: never in flight together");
          ("pool_workers", string_of_int workers);
          ("dop", string_of_int (Service.config svc).Service.dop);
          ( "wal_flush_policy",
            Printf.sprintf
              "group commit: fsync at most once per %.0f ms; checkpoint at %d bytes"
              wal_group_ms checkpoint_bytes );
          ( "writer",
            Printf.sprintf "open loop, %.0f INSERTs/s of %d rows" inserts_per_s rows_per_insert );
          ("rows_acknowledged", string_of_int acked);
          ("emp_rows_initial / live / recovered",
           Printf.sprintf "%d / %d / %d" emps live_rows recovered_rows);
          ("wal_records_replayed", string_of_int rstats.Recovery.replayed);
          ("quiescent_answers_checked", string_of_int (Answers.distinct answers));
        ]
      ~extra:
        [
          m "recover_s" "s" recover_s;
          m "wal.fsyncs_per_commit" "count" (ratio (w1.Wal.fsyncs - w0.Wal.fsyncs) commits);
          m "wal.bytes_per_row" "B"
            (if rows_a = 0. then 0.
             else float_of_int (w1.Wal.appended_bytes - w0.Wal.appended_bytes) /. rows_a);
          m "wal.replayed" "count" (float_of_int rstats.Recovery.replayed);
        ]
  in
  let durable =
    [
      ("recovered emp rows = initial + acknowledged", recovered_rows = emps + acked);
      ("live emp rows = initial + acknowledged", live_rows = emps + acked);
    ]
  in
  { r with
    correct = r.correct && List.for_all snd durable;
    checks = r.checks @ durable }
