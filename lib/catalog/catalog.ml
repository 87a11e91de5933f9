type table = {
  tname : string;
  tschema : Schema.t;
  primary_key : string list;
  heap : Heap_file.t;
  indexes : (string * Btree.t) list;
  tstats : Stats.table_stats;
  clustered : string option;
}

type foreign_key = {
  fk_table : string;
  fk_column : string;
  pk_table : string;
  pk_column : string;
}

type t = {
  storage : Storage.t;
  mutable table_list : table list;
  mutable fks : foreign_key list;
  mutable epoch : int;
  (* Per-table write version: bumped by every insert/replace of that table.
     Consumers tracking derived state (materialized views) compare absorbed
     versions against these to decide staleness without being invalidated by
     unrelated tables' writes (the global epoch moves on every change). *)
  versions : (string, int) Hashtbl.t;
}

let create ?frames () =
  { storage = Storage.create ?frames (); table_list = []; fks = []; epoch = 0;
    versions = Hashtbl.create 16 }

let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1

let table_version t name =
  Option.value ~default:0 (Hashtbl.find_opt t.versions name)

let bump_version t name = Hashtbl.replace t.versions name (table_version t name + 1)

let storage t = t.storage

let find_table t name =
  List.find_opt (fun tbl -> String.equal tbl.tname name) t.table_list

let table_exn t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown table %s" name)

let tables t = t.table_list
let foreign_keys t = t.fks

(* Load, analyze and index a table without registering it. *)
let build_table t ~name ~columns ~pk ?(index = []) ?cluster rows =
  let check_col c =
    if not (List.exists (fun (n, _) -> String.equal n c) columns) then
      invalid_arg (Printf.sprintf "Catalog.add_table %s: unknown column %s" name c)
  in
  List.iter check_col pk;
  List.iter check_col index;
  Option.iter check_col cluster;
  if rows = [] then invalid_arg (Printf.sprintf "Catalog.add_table %s: no rows" name);
  (* No declared primary key: materialize the internal tuple id as a hidden
     [_rid] column and use it as the key (paper, Section 3: "the query
     engine can use the internal tuple id as a key"). *)
  let columns, pk, rows =
    if pk <> [] then (columns, pk, rows)
    else
      ( columns @ [ ("_rid", Datatype.Int) ],
        [ "_rid" ],
        List.mapi (fun i t -> Tuple.concat t [| Value.Int i |]) rows )
  in
  let schema =
    Schema.of_columns
      (List.map (fun (cname, ty) -> Schema.column ~qual:name cname ty) columns)
  in
  let clustered =
    match cluster, pk with
    | Some c, _ -> Some c
    | None, c :: _ -> Some c
    | None, [] -> None
  in
  let rows =
    match clustered with
    | None -> rows
    | Some c ->
      let i = Schema.find_exn schema c in
      List.stable_sort (fun a b -> Value.compare (Tuple.get a i) (Tuple.get b i)) rows
  in
  let heap = Storage.create_heap t.storage schema in
  Heap_file.append_all heap rows;
  let tstats = Stats.analyze schema rows in
  let to_index =
    let pk_head = match pk with [] -> [] | c :: _ -> [ c ] in
    let clustered_col = match clustered with None -> [] | Some c -> [ c ] in
    List.sort_uniq String.compare (pk_head @ clustered_col @ index)
  in
  let indexes =
    List.map
      (fun cname ->
        let col = Schema.find_exn schema cname in
        (cname, Storage.build_index t.storage heap ~column:col))
      to_index
  in
  { tname = name; tschema = schema; primary_key = pk; heap; indexes; tstats;
    clustered }

let add_table t ~name ~columns ~pk ?index ?cluster rows =
  if find_table t name <> None then
    invalid_arg (Printf.sprintf "Catalog.add_table: duplicate table %s" name);
  let tbl = build_table t ~name ~columns ~pk ?index ?cluster rows in
  t.table_list <- t.table_list @ [ tbl ];
  bump_epoch t;
  tbl

(* Restore a table from a durable checkpoint.  Rows arrive full-width (any
   hidden [_rid] values included) and in exact stored heap order — a
   pre-crash heap is a sorted initial load plus an unsorted appended tail,
   so re-sorting by the clustered column here would break byte-identical
   recovery.  No key synthesis, no sort: append verbatim. *)
let restore_table t ~name ~columns ~pk ?(index = []) ?cluster rows =
  if find_table t name <> None then
    invalid_arg (Printf.sprintf "Catalog.restore_table: duplicate table %s" name);
  if rows = [] then
    invalid_arg (Printf.sprintf "Catalog.restore_table %s: no rows" name);
  let schema =
    Schema.of_columns
      (List.map (fun (cname, ty) -> Schema.column ~qual:name cname ty) columns)
  in
  let clustered =
    match cluster, pk with
    | Some c, _ -> Some c
    | None, c :: _ -> Some c
    | None, [] -> None
  in
  let heap = Storage.create_heap t.storage schema in
  Heap_file.append_all heap rows;
  let tstats = Stats.analyze schema rows in
  let to_index =
    let pk_head = match pk with [] -> [] | c :: _ -> [ c ] in
    let clustered_col = match clustered with None -> [] | Some c -> [ c ] in
    List.sort_uniq String.compare (pk_head @ clustered_col @ index)
  in
  let indexes =
    List.map
      (fun cname ->
        let col = Schema.find_exn schema cname in
        (cname, Storage.build_index t.storage heap ~column:col))
      to_index
  in
  let tbl =
    { tname = name; tschema = schema; primary_key = pk; heap; indexes; tstats;
      clustered }
  in
  t.table_list <- t.table_list @ [ tbl ];
  bump_epoch t;
  tbl

(* System views ([avq_stat_*], [avq_server_*]): synthesized in-memory
   relations refreshed by replacing the whole table.  Unlike user tables they
   may be empty, carry no key (no hidden [_rid] — their rows have no
   identity), no indexes, and no clustering; statistics are analyzed from
   the snapshot when non-empty, or faked from one per-type default row with
   the cardinality forced to 0 (the optimizer only needs non-crashing
   numbers — nobody joins system views on cost-sensitive paths). *)
let put_system_table t ~name ~columns rows =
  (* Replacing a same-shaped snapshot is invisible to cached plans: scans
     resolve the heap by name at execution time, so only the FIRST install
     (or a schema change) needs an epoch bump to invalidate — a monitoring
     query must not flush the plan cache on every refresh. *)
  let same_shape = ref false in
  (match find_table t name with
   | Some tbl ->
     same_shape :=
       List.length columns = Schema.arity tbl.tschema
       && List.for_all2
            (fun (cname, ty) col ->
              String.equal cname col.Schema.cname
              && Datatype.equal ty col.Schema.cty)
            columns
            (Schema.columns tbl.tschema);
     Heap_file.drop tbl.heap;
     t.table_list <-
       List.filter (fun x -> not (String.equal x.tname name)) t.table_list
   | None -> ());
  let schema =
    Schema.of_columns
      (List.map (fun (cname, ty) -> Schema.column ~qual:name cname ty) columns)
  in
  let heap = Storage.create_heap t.storage schema in
  Heap_file.append_all heap rows;
  let tstats =
    match rows with
    | [] ->
      let default_value = function
        | Datatype.Int -> Value.Int 0
        | Datatype.Float -> Value.Float 0.
        | Datatype.String -> Value.String ""
        | Datatype.Bool -> Value.Bool false
        | Datatype.Date -> Value.Date 0
      in
      let dummy = Tuple.make (List.map (fun (_, ty) -> default_value ty) columns) in
      let st = Stats.analyze schema [ dummy ] in
      { st with Stats.card = 0; pages = 0 }
    | _ -> Stats.analyze schema rows
  in
  let tbl =
    { tname = name; tschema = schema; primary_key = []; heap; indexes = [];
      tstats; clustered = None }
  in
  t.table_list <- t.table_list @ [ tbl ];
  if not !same_shape then bump_epoch t;
  tbl

let set_table_version t name v = Hashtbl.replace t.versions name v

let restore_foreign_key t fk = t.fks <- t.fks @ [ fk ]

let replace_table t tbl' =
  t.table_list <-
    List.map
      (fun x -> if String.equal x.tname tbl'.tname then tbl' else x)
      t.table_list

let insert t ~table rows =
  let tbl = table_exn t table in
  if rows = [] then []
  else begin
    let arity = Schema.arity tbl.tschema in
    (* A synthesized [_rid] key never appears in user-facing INSERTs; assign
       the next internal tuple ids (the heap is append-only, so
       [nrows + i] is fresh and monotonic). *)
    let hidden_rid = tbl.primary_key = [ "_rid" ] in
    let next_rid = Heap_file.nrows tbl.heap in
    let rows =
      List.mapi
        (fun i r ->
          let a = Tuple.arity r in
          if a = arity then r
          else if hidden_rid && a = arity - 1 then
            Tuple.concat r [| Value.Int (next_rid + i) |]
          else
            invalid_arg
              (Printf.sprintf "Catalog.insert %s: row arity %d, expected %d"
                 table a (if hidden_rid then arity - 1 else arity)))
        rows
    in
    let rids = Storage.Table.insert tbl.heap rows in
    List.iter
      (fun (cname, idx) ->
        let col = Schema.find_exn tbl.tschema cname in
        List.iter2
          (fun row rid -> Btree.insert idx (Tuple.get row col) rid)
          rows rids)
      tbl.indexes;
    (* Incremental statistics: exact cardinality and page count, value
       bounds widened to cover the new rows.  NDV and histograms are left
       as analyzed (they can only be refreshed by a scan; {!refresh_stats}
       makes them exact again). *)
    let n = List.length rows in
    let widen i cs =
      let vmin, vmax =
        List.fold_left
          (fun (lo, hi) row ->
            let v = Tuple.get row i in
            ( (if Value.compare v lo < 0 then v else lo),
              if Value.compare v hi > 0 then v else hi ))
          (cs.Stats.vmin, cs.Stats.vmax)
          rows
      in
      { cs with Stats.vmin; vmax }
    in
    let tstats =
      { tbl.tstats with
        Stats.card = tbl.tstats.Stats.card + n;
        pages = Heap_file.npages tbl.heap;
        columns = Array.mapi widen tbl.tstats.Stats.columns }
    in
    replace_table t { tbl with tstats };
    bump_version t table;
    bump_epoch t;
    rows
  end

let drop_table t name =
  let tbl = table_exn t name in
  Heap_file.drop tbl.heap;
  t.table_list <-
    List.filter (fun x -> not (String.equal x.tname name)) t.table_list;
  t.fks <-
    List.filter
      (fun fk ->
        not (String.equal fk.fk_table name || String.equal fk.pk_table name))
      t.fks;
  Hashtbl.remove t.versions name;
  bump_epoch t

let replace_rows t name rows =
  let tbl = table_exn t name in
  let columns =
    List.map (fun c -> (c.Schema.cname, c.Schema.cty)) (Schema.columns tbl.tschema)
  in
  Heap_file.drop tbl.heap;
  let tbl' =
    build_table t ~name ~columns ~pk:tbl.primary_key
      ~index:(List.map fst tbl.indexes) ?cluster:tbl.clustered rows
  in
  (* One assignment swaps the new table in at the old one's position: a
     concurrent reader finds either the old table or the new one, never
     neither.  (Dropping the old heap's frames leaves its rows readable.) *)
  t.table_list <-
    List.map (fun x -> if String.equal x.tname name then tbl' else x) t.table_list;
  bump_version t name;
  bump_epoch t;
  tbl'

let add_foreign_key t ~from:(ft, fc) ~refs:(pt, pc) =
  let ftbl = table_exn t ft and ptbl = table_exn t pt in
  let has_col tbl c = Schema.find tbl.tschema c <> None in
  if not (has_col ftbl fc) then
    invalid_arg (Printf.sprintf "add_foreign_key: %s has no column %s" ft fc);
  if not (has_col ptbl pc) then
    invalid_arg (Printf.sprintf "add_foreign_key: %s has no column %s" pt pc);
  if ptbl.primary_key <> [ pc ] then
    invalid_arg
      (Printf.sprintf "add_foreign_key: %s.%s is not the primary key" pt pc);
  t.fks <- { fk_table = ft; fk_column = fc; pk_table = pt; pk_column = pc } :: t.fks;
  bump_epoch t

let refresh_stats t =
  t.table_list <-
    List.map
      (fun tbl ->
        let rows = List.of_seq (Heap_file.to_seq tbl.heap) in
        { tbl with tstats = Stats.analyze tbl.tschema rows })
      t.table_list;
  bump_epoch t

let column_stats tbl cname =
  match Schema.find tbl.tschema cname with
  | None -> raise Not_found
  | Some i -> tbl.tstats.Stats.columns.(i)

let index_on tbl cname =
  List.assoc_opt cname tbl.indexes

let is_superkey tbl cols =
  tbl.primary_key <> []
  && List.for_all (fun k -> List.exists (String.equal k) cols) tbl.primary_key

let is_fk_join t ~from:(ft, fc) ~refs:(pt, pc) =
  List.exists
    (fun fk ->
      String.equal fk.fk_table ft && String.equal fk.fk_column fc
      && String.equal fk.pk_table pt && String.equal fk.pk_column pc)
    t.fks
