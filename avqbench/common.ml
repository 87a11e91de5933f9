(* Shared machinery of the benchmark: clocks and sample statistics, the
   in-memory span recorder of the traced run, answer comparison, host
   facts and the result record every workload returns. *)

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

(* ---- sample statistics ---- *)

(* Nearest-rank percentile of an unsorted sample; 0 on an empty one. *)
let percentile xs p =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Named samples and counts, appended from several client threads: a
   phase of load files every latency, count and per-layer figure here under
   the metric name it feeds. *)
module Acc = struct
  type t = { m : Mutex.t; tbl : (string, float list) Hashtbl.t }

  let create () = { m = Mutex.create (); tbl = Hashtbl.create 32 }

  let add t k x =
    Mutex.protect t.m (fun () ->
        Hashtbl.replace t.tbl k
          (x :: Option.value ~default:[] (Hashtbl.find_opt t.tbl k)))

  let incr t k = add t k 1.

  let values t k =
    Mutex.protect t.m (fun () ->
        Option.value ~default:[] (Hashtbl.find_opt t.tbl k))

  let count t k = List.length (values t k)
  let sum t k = List.fold_left ( +. ) 0. (values t k)

  let keys t =
    Mutex.protect t.m (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
end

(* ---- spans of the traced run ----

   The benchmark's own spans, recorded around its calls into each layer's
   public functions: name, start, end, parent span and statement id.  They
   stay in memory and are written out once the run ends. *)
module Spans = struct
  type span = {
    id : int;
    parent : int;  (** 0 = root *)
    stmt : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  type t = { m : Mutex.t; mutable spans : span list; next : int Atomic.t }

  let create () = { m = Mutex.create (); spans = []; next = Atomic.make 1 }

  (* [record tr ~stmt ~parent name f] runs [f id] inside a span; with no
     recorder it is just [f 0]. *)
  let record tr ~stmt ?(parent = 0) name f =
    match tr with
    | None -> f 0
    | Some t ->
      let id = Atomic.fetch_and_add t.next 1 in
      let t0 = now () in
      let finish () =
        let s = { id; parent; stmt; name; t0; t1 = now () } in
        Mutex.protect t.m (fun () -> t.spans <- s :: t.spans)
      in
      Fun.protect ~finally:finish (fun () -> f id)

  let all t = Mutex.protect t.m (fun () -> List.rev t.spans)
  let dur_ms s = (s.t1 -. s.t0) *. 1000.

  (* Self time per span name, in ms summed over the run: a span's duration
     minus the time its direct children cover (children are sequential). *)
  let self_ms t =
    let spans = all t in
    let child_ms = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace child_ms s.parent
            (dur_ms s
            +. Option.value ~default:0. (Hashtbl.find_opt child_ms s.parent)))
      spans;
    let self = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let own =
          dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt child_ms s.id)
        in
        let n, ms = Option.value ~default:(0, 0.) (Hashtbl.find_opt self s.name) in
        Hashtbl.replace self s.name (n + 1, ms +. own))
      spans;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

  let write t path =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\":%d,\"parent\":%d,\"stmt\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n"
              s.id s.parent s.stmt s.name s.t0 s.t1)
          (all t))
end

(* ---- answers ----

   Plans that compute the same answer may order rows differently and may
   sum floats in a different order, so answers compare as sorted bags of
   rendered cells.  Floats render with six significant digits, so numeric
   cells agree within a relative 1e-5. *)

let cell_equal a b =
  String.equal a b
  ||
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y ->
    Float.abs (x -. y) <= 1e-5 *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
  | _ -> false

let rows_equal (a : string list list) (b : string list list) =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> List.length ra = List.length rb && List.for_all2 cell_equal ra rb)
       (List.sort compare a) (List.sort compare b)

let rows_of_relation rel =
  List.map
    (fun tup -> Array.to_list (Array.map Value.to_string tup))
    (Relation.tuples rel)

(* Cells of one rendered row: [Relation.pp] separates them with [" | "]. *)
let split_cells line =
  let n = String.length line in
  let rec go start i acc =
    if i + 3 > n then List.rev (String.sub line start (n - start) :: acc)
    else if String.sub line i 3 = " | " then
      go (i + 3) (i + 3) (String.sub line start (i - start) :: acc)
    else go start (i + 1) acc
  in
  List.map String.trim (go 0 0 [])

(* Rows of a served reply body: a header line, a rule, one line per row
   and a closing "(N rows)" line. *)
let rows_of_body body =
  match String.split_on_char '\n' body with
  | _header :: _rule :: rows ->
    List.filter_map
      (fun line ->
        let l = String.trim line in
        if l = "" || (l.[0] = '(' && String.ends_with ~suffix:"rows)" l) then None
        else Some (split_cells line))
      rows
  | _ -> []

(* ---- host facts, recorded with every result ---- *)

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

let status_field name =
  match read_file "/proc/self/status" with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.equal (String.sub line 0 i) name ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' s)

(* CPUs this process may run on (what [nproc] prints), from the affinity
   list in /proc/self/status. *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a ] when a <> "" -> acc + 1
        | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
        | _ -> acc)
      0 (String.split_on_char ',' l)

(* Restart the peak-RSS mark (Linux: "5" to /proc/self/clear_refs), so the
   peak read later is the workload's and not the set-up's transient one. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Peak resident set size of this process, MiB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.
    | [] -> 0.)
  | None -> 0.

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** the untraced end-to-end metrics *)
  layer : metric list;  (** per-layer metrics of the traced run *)
  info : (string * string) list;  (** configuration and sample counts *)
  checks : (string * bool) list;  (** named correctness gates *)
  spans : Spans.t option;  (** the traced phase's spans *)
}

let m name unit_ value = { name; value; unit_ }

(* Deadline of every statement the benchmark sends: a runaway plan ends as
   a typed timeout, counted as a failure, never as a hung run. *)
let statement_timeout_ms = 2_000.

(* Set-up is repeated and its median reported, so one slow allocation or
   page-cache miss does not decide the figure.  Every repetition but the
   last is torn down. *)
let setup_reps = 5

let timed_setup ~setup ~teardown =
  let rec go i times =
    let t0 = now () in
    let env = setup () in
    let times = (now () -. t0) :: times in
    if i + 1 >= setup_reps then (env, median times)
    else (
      teardown env;
      go (i + 1) times)
  in
  let result = go 0 [] in
  (* drop the set-ups' garbage, then measure peak memory from here on *)
  Gc.compact ();
  reset_peak_rss ();
  result

(* ---- per-layer accounting shared by the workloads ---- *)

(* Operators the executor profile names; anything else (Project,
   Materialize, Limit, Repartition) is filed under "other". *)
let ops =
  [ "SeqScan"; "IndexScan"; "Filter"; "HashJoin"; "BNLJoin"; "IndexNLJoin";
    "MergeJoin"; "HashGroup"; "SortGroup"; "Sort"; "Exchange" ]

let op_class pname =
  let base =
    match String.index_opt pname '(' with
    | Some i -> String.sub pname 0 i
    | None -> pname
  in
  if List.mem base ops then base else "other"

let is_worker (n : Profile.node) = String.starts_with ~prefix:"worker-" n.Profile.pname

(* File one profiled run's self time per operator class: a node's
   inclusive time minus its operator children's (an exchange's per-worker
   nodes ran in parallel with it and are not operators). *)
let account_profile acc prof =
  let rec walk (n : Profile.node) =
    let kids = List.filter (fun k -> not (is_worker k)) (Profile.children n) in
    let self =
      Profile.total_ms n -. List.fold_left (fun s k -> s +. Profile.total_ms k) 0. kids
    in
    Acc.add acc ("exec.self_ms." ^ op_class n.Profile.pname) self;
    List.iter walk kids
  in
  List.iter walk (Profile.roots prof);
  Acc.incr acc "exec.profiled"

(* File one statement's page IO and buffer-pool hits. *)
let account_io acc (io : Buffer_pool.stats) =
  Acc.add acc "storage.page_reads" (float_of_int io.Buffer_pool.reads);
  Acc.add acc "storage.page_writes" (float_of_int io.Buffer_pool.writes);
  Acc.add acc "storage.pool_hits" (float_of_int io.Buffer_pool.hits)

let io_of_profile prof =
  let total f = List.fold_left (fun s n -> s + f n) 0 (Profile.roots prof) in
  { Buffer_pool.reads = total Profile.total_reads; writes = total Profile.total_writes;
    hits = total Profile.total_hits }

(* q-error of the root cardinality estimate: max(est/actual, actual/est),
   both clamped to at least one row. *)
let account_q_error acc ~est_rows ~actual =
  let e = Float.max 1. est_rows and a = Float.max 1. (float_of_int actual) in
  Acc.add acc "cost.q_error_rows" (Float.max (e /. a) (a /. e))

(* Operator self times as a mean per profiled statement, so they add up to
   the executor's mean time. *)
let self_time_metrics acc =
  let n = Float.max 1. (Acc.sum acc "exec.profiled") in
  List.map
    (fun op -> m ("exec.self_ms." ^ op) "ms" (Acc.sum acc ("exec.self_ms." ^ op) /. n))
    (ops @ [ "other" ])

let io_metrics acc =
  let n = Float.max 1. (float_of_int (Acc.count acc "storage.page_reads")) in
  let reads = Acc.sum acc "storage.page_reads" and hits = Acc.sum acc "storage.pool_hits" in
  [
    m "storage.page_reads" "pages" (reads /. n);
    m "storage.page_writes" "pages" (Acc.sum acc "storage.page_writes" /. n);
    m "storage.pool_hit_ratio" "share" (if reads +. hits = 0. then 0. else hits /. (reads +. hits));
  ]

let q_error_metrics acc =
  let q = Acc.values acc "cost.q_error_rows" in
  [
    m "cost.q_error_rows.median" "ratio" (median q);
    m "cost.q_error_rows.max" "ratio" (List.fold_left Float.max 0. q);
  ]

(* Read latency figures of a phase: [reads] in ms, [seconds] measured. *)
let read_metrics reads ~seconds =
  [
    m "read_p50_ms" "ms" (percentile reads 50.);
    m "read_p95_ms" "ms" (percentile reads 95.);
    m "read_p99_ms" "ms" (percentile reads 99.);
    m "read_sps" "1/s" (float_of_int (List.length reads) /. seconds);
  ]

(* Plan-cache figures between two [Service.stats] readings. *)
let cache_metrics (b : Service.stats) (a : Service.stats) =
  [
    m "service.cache_hit_ratio" "share"
      (ratio
         (a.Service.hits - b.Service.hits + a.Service.rebinds - b.Service.rebinds)
         (a.Service.calls - b.Service.calls));
    m "service.invalidations" "count"
      (float_of_int (a.Service.invalidations - b.Service.invalidations));
  ]

(* avq's own plan-cache accounting: every call has exactly one source. *)
let cache_sum_holds (s : Service.stats) =
  s.Service.calls
  = s.Service.hits + s.Service.rebinds + s.Service.misses + s.Service.recost_fallbacks
    + s.Service.rebind_conflicts

(* Tracing overhead (the traced phase's median read latency against the
   untraced one's) and the number of spans recorded. *)
let trace_metrics ~untraced ~traced tr =
  match tr with
  | None -> []
  | Some t ->
    let pa = median untraced and pb = median traced in
    [
      m "trace.overhead_read_p50_ms" "ms" (pb -. pa);
      m "trace.overhead_share" "share" (if pa = 0. then 0. else (pb -. pa) /. pa);
      m "trace.spans" "count" (float_of_int (List.length (Spans.all t)));
    ]

(* ---- the answer oracle ----

   Every answer is checked against the same query planned by the
   [Traditional] optimizer at dop 1 and run on its own context: no plan
   cache, no materialized views, no parallelism. *)
let oracle_timeout_ms = 60_000.

let oracle_rows cat ~work_mem (q : Block.query) =
  let options =
    { Optimizer.default_options with
      Optimizer.algorithm = Optimizer.Traditional; dop = 1; work_mem }
  in
  let r = Optimizer.optimize ~options cat q in
  let ctx = Exec_ctx.create ~work_mem cat in
  Exec_ctx.begin_statement ~timeout_ms:oracle_timeout_ms ctx;
  rows_of_relation (Executor.run ctx r.Optimizer.plan)

(* Answers kept for the check: the first answer seen per (template,
   constants) and how many statements returned it.  Later answers for the
   same key must equal it (when the data does not change under the load). *)
module Answers = struct
  type entry = { query : unit -> Block.query; rows : string list list; mutable n : int }
  type t = { m : Mutex.t; tbl : (string, entry) Hashtbl.t }

  let create () = { m = Mutex.create (); tbl = Hashtbl.create 64 }

  (* [observe t key ~query rows] — [false] when [rows] contradicts the answer
     kept for [key]. *)
  let observe t key ~query rows =
    Mutex.protect t.m (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          let same = rows_equal e.rows rows in
          if same then e.n <- e.n + 1;
          same
        | None ->
          Hashtbl.replace t.tbl key { query; rows; n = 1 };
          true)

  (* Check every kept answer against the oracle; returns the number of
     statements whose answer was wrong (or could not be checked). *)
  let check t cat ~work_mem =
    Hashtbl.fold
      (fun _ e wrong ->
        match oracle_rows cat ~work_mem (e.query ()) with
        | rows when rows_equal rows e.rows -> wrong
        | _ -> wrong + e.n
        | exception _ -> wrong + e.n)
      t.tbl 0

  let distinct t = Hashtbl.length t.tbl
end
