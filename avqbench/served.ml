(* served_hot: two closed-loop TCP connections to an in-process [Server]
   over a 2-worker pool, on an [Emp_dept] catalog that fits in the buffer
   pool.  Short GROUP BY statements with seeded constants, half sent as SQL
   text and half as prepared statements, so nearly every statement is a
   plan-cache hit or rebind: the wire, admission, the handler's poll wait
   and rebinding dominate while the optimizer, executor and storage do
   little. *)

open Common

let connections = 2
let workers = 2
let frames = 256
let emps = 5000

(* Three templates, each with one constant. *)
let templates =
  [|
    ( "heads",
      Printf.sprintf
        "SELECT e.dno AS dno, COUNT(*) AS heads FROM emp e WHERE e.sal > %d GROUP BY e.dno",
      (1_000, 9_000) );
    ( "avg_by_age",
      Printf.sprintf
        "SELECT e.dno AS dno, AVG(e.sal) AS avg_sal FROM emp e WHERE e.age > %d GROUP BY \
         e.dno",
      (18, 65) );
    ( "avg_by_budget",
      Printf.sprintf
        "SELECT e.dno AS dno, AVG(e.sal) AS avg_sal FROM emp e, dept d WHERE e.dno = d.dno \
         AND d.budget > %d GROUP BY e.dno",
      (100_000, 2_000_000) );
  |]

(* Sixteen seeded constants per template: enough that the plan cache
   rebinds rather than replays, few enough that every distinct answer is
   checked. *)
let constants seed =
  let rng = Rng.create ~seed in
  Array.map
    (fun (_, _, (lo, hi)) -> Array.init 16 (fun _ -> Rng.in_range rng lo hi))
    templates

let conn consts i =
  let name t = "t" ^ string_of_int t in
  {
    Netload.prepares =
      Array.to_list
        (Array.mapi (fun t (_, sql, _) -> (name t, sql consts.(t).(0))) templates);
    seed = (i * 7919) + consts.(0).(0);
    rate = None;
    turn = None;
    next =
      (fun rng ->
        let t = Rng.int rng (Array.length templates) in
        let c = consts.(t).(Rng.int rng 16) in
        let label, sql, _ = templates.(t) in
        let text = sql c in
        {
          Netload.write = false;
          key = Printf.sprintf "%s/%d" label c;
          sql = text;
          req =
            (if Rng.bool rng then Protocol.Query text
             else Protocol.Exec_prepared (name t, [ Value.Int c ]));
          rows = 0;
        });
  }

let setup ~seed () =
  let cat =
    Emp_dept.load
      ~params:{ Emp_dept.default_params with Emp_dept.emps; frames; seed }
      ()
  in
  let env = Netload.start ~workers ~dop:(Service.auto_dop ~workers) cat in
  (* warm-up: every template once as text and once prepared *)
  let c = Netload.connect ~port:(Server.port env.Netload.srv) (conn (constants seed) 0) in
  Array.iteri
    (fun t (_, sql, (lo, _)) ->
      Netload.expect_ok "warm-up" (Client.query c (sql lo));
      Netload.expect_ok "warm-up" (Client.exec_prepared c ("t" ^ string_of_int t) [ Value.Int lo ]))
    templates;
  Client.close c;
  env

let run ~seed ~seconds ~trace =
  let env, setup_s = timed_setup ~setup:(setup ~seed) ~teardown:Netload.stop in
  let consts = constants seed in
  let conns = List.init connections (conn consts) in
  let answers = Answers.create () in
  let phase_s = if trace then seconds /. 2. else seconds in
  let a = Netload.run_phase ~answers ~seconds:phase_s env conns in
  let tr = if trace then Some (Spans.create ()) else None in
  let b = Option.map (fun tr -> Netload.run_phase ~tr ~answers ~seconds:phase_s env conns) tr in
  let work_mem = (Service.config env.Netload.svc).Service.work_mem in
  let wrong = Answers.check answers env.Netload.cat ~work_mem in
  Netload.stop env;
  let temps = Storage.live_temps (Catalog.storage env.Netload.cat) in
  Netload.summarize ~setup_s ~a ~b ~tr ~wrong ~temps
    ~info:
      [
        ("catalog", Netload.describe env.Netload.cat);
        ("frames", string_of_int frames);
        ("connections", string_of_int connections);
        ("pool_workers", string_of_int workers);
        ("dop", string_of_int (Service.config env.Netload.svc).Service.dop);
        ("distinct_answers_checked", string_of_int (Answers.distinct answers));
      ]
    ~extra:[]
