(* Per-statement cumulative statistics keyed by plan-cache fingerprint.

   Always-on: every statement the service executes records one observation
   here, so the hot path must stay cheap and domain-safe.  Entries live in
   [nshards] hash tables, each behind its own mutex; a record takes exactly
   one shard lock (picked by fingerprint hash), so concurrent pool workers
   touching different statements do not contend, and workers hammering the
   same statement contend only with each other.

   Cardinality is bounded: when a shard is full the coldest entry (smallest
   last-used tick) is evicted and counted.  The per-entry latency histogram
   reuses the registry's bucket ladder, so p50/p95/p99 here agree with what
   a Prometheus scrape would compute from [avq_statement_ms_bucket]. *)

let nshards = 8

(* Bucket ladder shared with Metrics.Histogram.latency_ms_buckets; +Inf is
   implicit as a final slot. *)
let ladder = Metrics.Histogram.latency_ms_buckets

type entry = {
  e_fp : string;
  e_query : string;
  mutable e_calls : int;
  mutable e_errors : (string * int) list;  (* error class -> count *)
  mutable e_total_ms : float;
  mutable e_min_ms : float;
  mutable e_max_ms : float;
  e_hist : int array;  (* latency buckets over [ladder], +Inf last *)
  mutable e_rows : int;
  mutable e_pages : int;
  mutable e_spill_bytes : int;
  mutable e_cache_hits : int;
  mutable e_rebinds : int;
  mutable e_mv_hits : int;
  mutable e_wal_bytes : int;
  mutable e_max_dop : int;
  mutable e_placement : string;  (* group-by placement, last seen *)
  mutable e_q_sum : float;  (* root-row q-errors of successful runs *)
  mutable e_q_n : int;
  mutable e_q_max : float;
  mutable e_last_used : int;
}

type shard = {
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
}

type t = {
  shards : shard array;
  cap : int;  (* max entries per shard *)
  clock : int Atomic.t;  (* LRU tick, global across shards *)
  evicted : int Atomic.t;
  recorded : int Atomic.t;  (* total record calls, survives eviction/reset *)
}

let create ?(max_entries = 2048) () =
  if max_entries < nshards then
    invalid_arg "Stmt_stats.create: max_entries below shard count";
  {
    shards =
      Array.init nshards (fun _ ->
          { mu = Mutex.create (); tbl = Hashtbl.create 64 });
    cap = max_entries / nshards;
    clock = Atomic.make 0;
    evicted = Atomic.make 0;
    recorded = Atomic.make 0;
  }

let protect mu f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let shard_of t fp = t.shards.(Hashtbl.hash fp land (nshards - 1))

let max_query_len = 256

let truncate_query q =
  if String.length q <= max_query_len then q
  else String.sub q 0 (max_query_len - 3) ^ "..."

let fresh_entry fp query tick =
  {
    e_fp = fp;
    e_query = truncate_query query;
    e_calls = 0;
    e_errors = [];
    e_total_ms = 0.;
    e_min_ms = infinity;
    e_max_ms = 0.;
    e_hist = Array.make (Array.length ladder + 1) 0;
    e_rows = 0;
    e_pages = 0;
    e_spill_bytes = 0;
    e_cache_hits = 0;
    e_rebinds = 0;
    e_mv_hits = 0;
    e_wal_bytes = 0;
    e_max_dop = 0;
    e_placement = "";
    e_q_sum = 0.;
    e_q_n = 0;
    e_q_max = 0.;
    e_last_used = tick;
  }

let evict_coldest sh =
  let victim = ref None in
  Hashtbl.iter
    (fun fp e ->
      match !victim with
      | Some (_, cold) when cold.e_last_used <= e.e_last_used -> ()
      | _ -> victim := Some (fp, e))
    sh.tbl;
  match !victim with
  | Some (fp, _) ->
    Hashtbl.remove sh.tbl fp;
    true
  | None -> false

let bucket_slot ms =
  let n = Array.length ladder in
  let rec go i = if i >= n || ms <= ladder.(i) then i else go (i + 1) in
  go 0

let record t ~fp ~query ?error ?(rows = 0) ?(pages = 0) ?(spill_bytes = 0)
    ?(cache_hit = false) ?(rebind = false) ?(mv_hit = false) ?(wal_bytes = 0)
    ?(dop = 1) ?placement ?q_error ~ms () =
  Atomic.incr t.recorded;
  let tick = Atomic.fetch_and_add t.clock 1 in
  let sh = shard_of t fp in
  protect sh.mu (fun () ->
      let e =
        match Hashtbl.find_opt sh.tbl fp with
        | Some e -> e
        | None ->
          if Hashtbl.length sh.tbl >= t.cap && evict_coldest sh then
            Atomic.incr t.evicted;
          let e = fresh_entry fp query tick in
          Hashtbl.add sh.tbl fp e;
          e
      in
      e.e_last_used <- tick;
      e.e_calls <- e.e_calls + 1;
      (match error with
       | None -> ()
       | Some cls ->
         let n = Option.value ~default:0 (List.assoc_opt cls e.e_errors) in
         e.e_errors <- (cls, n + 1) :: List.remove_assoc cls e.e_errors);
      e.e_total_ms <- e.e_total_ms +. ms;
      if ms < e.e_min_ms then e.e_min_ms <- ms;
      if ms > e.e_max_ms then e.e_max_ms <- ms;
      let slot = bucket_slot ms in
      e.e_hist.(slot) <- e.e_hist.(slot) + 1;
      e.e_rows <- e.e_rows + rows;
      e.e_pages <- e.e_pages + pages;
      e.e_spill_bytes <- e.e_spill_bytes + spill_bytes;
      if cache_hit then e.e_cache_hits <- e.e_cache_hits + 1;
      if rebind then e.e_rebinds <- e.e_rebinds + 1;
      if mv_hit then e.e_mv_hits <- e.e_mv_hits + 1;
      e.e_wal_bytes <- e.e_wal_bytes + wal_bytes;
      if dop > e.e_max_dop then e.e_max_dop <- dop;
      Option.iter (fun p -> e.e_placement <- p) placement;
      Option.iter
        (fun q ->
          e.e_q_sum <- e.e_q_sum +. q;
          e.e_q_n <- e.e_q_n + 1;
          if q > e.e_q_max then e.e_q_max <- q)
        q_error)

(* ---- snapshots ---- *)

type stat = {
  fingerprint : string;
  query : string;
  calls : int;
  errors : int;
  error_classes : (string * int) list;
  total_ms : float;
  mean_ms : float;
  min_ms : float;
  max_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  rows : int;
  pages : int;
  spill_bytes : int;
  cache_hits : int;
  rebinds : int;
  mv_hits : int;
  wal_bytes : int;
  max_dop : int;
  group_placement : string;
  q_error_mean : float;
  q_error_max : float;
}

(* Smallest bucket upper bound whose cumulative count reaches rank;
   observations beyond the ladder answer with the exact max instead of
   +Inf. *)
let quantile e q =
  if e.e_calls = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int e.e_calls)) in
      if r < 1 then 1 else r
    in
    let n = Array.length ladder in
    let rec go i cum =
      if i >= n then e.e_max_ms
      else
        let cum = cum + e.e_hist.(i) in
        if cum >= rank then ladder.(i) else go (i + 1) cum
    in
    go 0 0
  end

let stat_of_entry e =
  {
    fingerprint = e.e_fp;
    query = e.e_query;
    calls = e.e_calls;
    errors = List.fold_left (fun acc (_, n) -> acc + n) 0 e.e_errors;
    error_classes = e.e_errors;
    total_ms = e.e_total_ms;
    mean_ms = (if e.e_calls = 0 then 0. else e.e_total_ms /. float_of_int e.e_calls);
    min_ms = (if e.e_calls = 0 then 0. else e.e_min_ms);
    max_ms = e.e_max_ms;
    p50_ms = quantile e 0.50;
    p95_ms = quantile e 0.95;
    p99_ms = quantile e 0.99;
    rows = e.e_rows;
    pages = e.e_pages;
    spill_bytes = e.e_spill_bytes;
    cache_hits = e.e_cache_hits;
    rebinds = e.e_rebinds;
    mv_hits = e.e_mv_hits;
    wal_bytes = e.e_wal_bytes;
    max_dop = e.e_max_dop;
    group_placement = e.e_placement;
    q_error_mean =
      (if e.e_q_n = 0 then 0. else e.e_q_sum /. float_of_int e.e_q_n);
    q_error_max = e.e_q_max;
  }

(* Consistent-per-entry snapshot: each shard is locked while its entries are
   copied, but shards are visited one after another — a cross-shard sum can
   lag concurrent records, which is fine for monitoring reads. *)
let snapshot t =
  let acc = ref [] in
  Array.iter
    (fun sh ->
      protect sh.mu (fun () ->
          Hashtbl.iter (fun _ e -> acc := stat_of_entry e :: !acc) sh.tbl))
    t.shards;
  List.sort (fun a b -> compare b.total_ms a.total_ms) !acc

let top ?(n = 10) t =
  let all = snapshot t in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  take n all

let reset t =
  Array.iter (fun sh -> protect sh.mu (fun () -> Hashtbl.reset sh.tbl)) t.shards

let tracked t =
  Array.fold_left
    (fun acc sh -> acc + protect sh.mu (fun () -> Hashtbl.length sh.tbl))
    0 t.shards

let evictions t = Atomic.get t.evicted
let recorded t = Atomic.get t.recorded

let total_calls t =
  Array.fold_left
    (fun acc sh ->
      acc
      + protect sh.mu (fun () ->
            Hashtbl.fold (fun _ e n -> n + e.e_calls) sh.tbl 0))
    0 t.shards

(* ---- JSON (the /statements endpoint body) ---- *)

let to_json_top ?(n = 10) t =
  let buf = Buffer.create 1024 in
  let fnum = Metrics.json_float in
  Buffer.add_string buf "{\n  \"statements\": [";
  List.iteri
    (fun i s ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      Buffer.add_string buf
        (Printf.sprintf
           "{ \"fingerprint\": \"%s\", \"query\": \"%s\", \"calls\": %d, \
            \"errors\": %d, \"total_ms\": %s, \"mean_ms\": %s, \"min_ms\": \
            %s, \"max_ms\": %s, \"p50_ms\": %s, \"p95_ms\": %s, \"p99_ms\": \
            %s, \"rows\": %d, \"pages\": %d, \"spill_bytes\": %d, \
            \"cache_hits\": %d, \"rebinds\": %d, \"mv_hits\": %d, \
            \"wal_bytes\": %d, \"max_dop\": %d, \"group_placement\": \"%s\", \
            \"q_error_mean\": %s, \"q_error_max\": %s }"
           (Metrics.escape_json s.fingerprint)
           (Metrics.escape_json s.query) s.calls s.errors
           (fnum s.total_ms) (fnum s.mean_ms) (fnum s.min_ms) (fnum s.max_ms)
           (fnum s.p50_ms) (fnum s.p95_ms) (fnum s.p99_ms) s.rows s.pages
           s.spill_bytes s.cache_hits s.rebinds s.mv_hits s.wal_bytes
           s.max_dop
           (Metrics.escape_json s.group_placement)
           (fnum s.q_error_mean)
           (fnum s.q_error_max)))
    (top ~n t);
  Buffer.add_string buf
    (Printf.sprintf "\n  ],\n  \"tracked\": %d,\n  \"evictions\": %d\n}\n"
       (tracked t) (evictions t));
  Buffer.contents buf

(* Register the store's own meta-counters on a metrics registry so scrapes
   see the stats subsystem itself. *)
let register_metrics t m =
  Metrics.gauge m ~help:"fingerprints currently tracked by the stats store"
    "avq_stat_statements_tracked" (fun () -> float_of_int (tracked t));
  Metrics.fn_counter m ~help:"stats-store LRU evictions"
    "avq_stat_evictions_total" (fun () -> float_of_int (evictions t));
  Metrics.fn_counter m ~help:"statement observations recorded"
    "avq_stat_recorded_total" (fun () -> float_of_int (recorded t))
