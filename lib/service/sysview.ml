(* System views: [avq_stat_statements], [avq_stat_tables],
   [avq_stat_matviews] and [avq_server_sessions], synthesized as ordinary
   in-memory catalog tables ({!Catalog.put_system_table}) right before a
   query that references them is bound.  Being real tables means the whole
   stack — binder, optimizer, executor, wire protocol — queries them with
   no special cases: ORDER BY, filters and LIMIT just work.  The price is
   that a snapshot is only as fresh as the last refresh, which is exactly
   the statement that reads it. *)

let statement_views =
  [ "avq_stat_statements"; "avq_stat_tables"; "avq_stat_matviews";
    "avq_server_sessions" ]

let is_system_table name =
  List.exists (String.equal name) statement_views

(* Cheap textual trigger: does this SQL possibly reference a system view?
   False positives only cost an extra refresh; false negatives are
   impossible because every view name contains one of these substrings. *)
let references_system_view sql =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let lower = String.lowercase_ascii sql in
  contains lower "avq_stat_" || contains lower "avq_server_"

(* ---- avq_server_sessions provider ----

   The TCP server lives a layer above this library, so it injects its
   session snapshot through a hook: one provider per process (one server
   per process in every deployment we ship; tests run servers
   sequentially). *)

type session_row = {
  ss_sid : int;
  ss_dop : int;  (* -1 = inherit the service config *)
  ss_work_mem : int;  (* -1 = inherit *)
  ss_timeout_ms : float;  (* -1 = inherit *)
  ss_spill_quota : int;  (* -1 = inherit *)
  ss_prepared : int;
}

let session_provider : (unit -> session_row list) option ref = ref None
let set_session_provider f = session_provider := Some f
let clear_session_provider () = session_provider := None

(* ---- the snapshots ---- *)

let f x = Value.Float x
let i x = Value.Int x
let s x = Value.String x
let b x = Value.Bool x

let statements_columns =
  [ ("fingerprint", Datatype.String); ("query", Datatype.String);
    ("calls", Datatype.Int); ("errors", Datatype.Int);
    ("total_ms", Datatype.Float); ("mean_ms", Datatype.Float);
    ("min_ms", Datatype.Float); ("max_ms", Datatype.Float);
    ("p50_ms", Datatype.Float); ("p95_ms", Datatype.Float);
    ("p99_ms", Datatype.Float); ("rows", Datatype.Int);
    ("pages", Datatype.Int); ("spill_bytes", Datatype.Int);
    ("cache_hits", Datatype.Int); ("rebinds", Datatype.Int);
    ("mv_hits", Datatype.Int); ("wal_bytes", Datatype.Int);
    ("max_dop", Datatype.Int); ("group_placement", Datatype.String);
    ("q_error_mean", Datatype.Float); ("q_error_max", Datatype.Float) ]

let statements_rows stats =
  List.map
    (fun (st : Stmt_stats.stat) ->
      Tuple.make
        [ s st.fingerprint; s st.query; i st.calls; i st.errors;
          f st.total_ms; f st.mean_ms; f st.min_ms; f st.max_ms;
          f st.p50_ms; f st.p95_ms; f st.p99_ms; i st.rows; i st.pages;
          i st.spill_bytes; i st.cache_hits; i st.rebinds; i st.mv_hits;
          i st.wal_bytes; i st.max_dop; s st.group_placement;
          f st.q_error_mean; f st.q_error_max ])
    (Stmt_stats.snapshot stats)

let tables_columns =
  [ ("name", Datatype.String); ("rows", Datatype.Int);
    ("pages", Datatype.Int); ("row_bytes", Datatype.Int);
    ("columns", Datatype.Int); ("indexes", Datatype.Int);
    ("version", Datatype.Int); ("clustered", Datatype.String);
    ("primary_key", Datatype.String) ]

let tables_rows cat =
  List.filter_map
    (fun (tbl : Catalog.table) ->
      if is_system_table tbl.Catalog.tname then None
      else
        Some
          (Tuple.make
             [ s tbl.Catalog.tname;
               i tbl.Catalog.tstats.Stats.card;
               i tbl.Catalog.tstats.Stats.pages;
               i tbl.Catalog.tstats.Stats.row_bytes;
               i (Schema.arity tbl.Catalog.tschema);
               i (List.length tbl.Catalog.indexes);
               i (Catalog.table_version cat tbl.Catalog.tname);
               s (Option.value ~default:"" tbl.Catalog.clustered);
               s (String.concat "," tbl.Catalog.primary_key) ]))
    (Catalog.tables cat)

let matviews_columns =
  [ ("name", Datatype.String); ("backing", Datatype.String);
    ("groups", Datatype.Int); ("fresh", Datatype.Bool);
    ("maintain", Datatype.Bool) ]

let matviews_rows cat mviews =
  List.map
    (fun (v : Matview.view) ->
      Tuple.make
        [ s v.Matview.mv_name; s v.Matview.mv_backing;
          i (Matview.row_count cat v);
          b (Matview.is_fresh cat v);
          b v.Matview.mv_maintain ])
    (Matview.views mviews)

let sessions_columns =
  [ ("sid", Datatype.Int); ("dop", Datatype.Int);
    ("work_mem", Datatype.Int); ("timeout_ms", Datatype.Float);
    ("spill_quota", Datatype.Int); ("prepared", Datatype.Int) ]

let sessions_rows () =
  match !session_provider with
  | None -> []
  | Some provider ->
    List.map
      (fun r ->
        Tuple.make
          [ i r.ss_sid; i r.ss_dop; i r.ss_work_mem; f r.ss_timeout_ms;
            i r.ss_spill_quota; i r.ss_prepared ])
      (List.sort (fun a b -> compare a.ss_sid b.ss_sid) (provider ()))

let refresh cat ~stats ~mviews =
  ignore
    (Catalog.put_system_table cat ~name:"avq_stat_statements"
       ~columns:statements_columns (statements_rows stats));
  ignore
    (Catalog.put_system_table cat ~name:"avq_stat_tables"
       ~columns:tables_columns (tables_rows cat));
  ignore
    (Catalog.put_system_table cat ~name:"avq_stat_matviews"
       ~columns:matviews_columns (matviews_rows cat mviews));
  ignore
    (Catalog.put_system_table cat ~name:"avq_server_sessions"
       ~columns:sessions_columns (sessions_rows ()))
