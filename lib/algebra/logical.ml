type t =
  | Scan of { alias : string; table : string; schema : Schema.t }
  | Filter of { input : t; pred : Expr.pred }
  | Join of { left : t; right : t; cond : Expr.pred list }
  | Group of {
      input : t;
      agg_qual : string;
      keys : Schema.column list;
      aggs : Aggregate.t list;
      having : Expr.pred list;
    }
  | Project of { input : t; cols : (Expr.t * Schema.column) list }

let group_schema ~agg_qual ~keys ~aggs input_schema =
  List.iter
    (fun k ->
      if Schema.index_of_column input_schema k = None then
        invalid_arg
          (Printf.sprintf "Logical: grouping column %s not in input"
             (Schema.column_to_string k)))
    keys;
  let agg_cols =
    List.map
      (fun (a : Aggregate.t) ->
        Schema.column ~qual:agg_qual a.Aggregate.out_name (Aggregate.result_type a))
      aggs
  in
  Schema.of_columns (keys @ agg_cols)

let rec schema = function
  | Scan s -> s.schema
  | Filter f -> schema f.input
  | Join j -> Schema.append (schema j.left) (schema j.right)
  | Group g -> group_schema ~agg_qual:g.agg_qual ~keys:g.keys ~aggs:g.aggs (schema g.input)
  | Project p ->
    Schema.of_columns (List.map snd p.cols)

let scan cat ~alias table =
  let tbl = Catalog.table_exn cat table in
  Scan { alias; table; schema = Schema.rename_qualifier tbl.Catalog.tschema alias }

let rec relations = function
  | Scan s -> [ (s.alias, s.table) ]
  | Filter f -> relations f.input
  | Join j -> relations j.left @ relations j.right
  | Group g -> relations g.input
  | Project p -> relations p.input

(* ---- reference interpreter ---- *)

let eval_group input_rel ~agg_qual ~keys ~aggs ~having =
  let in_schema = Relation.schema input_rel in
  let out_schema = group_schema ~agg_qual ~keys ~aggs in_schema in
  let key_idx =
    Array.of_list
      (List.map (fun k -> Schema.find_exn in_schema ~qual:k.Schema.cqual k.Schema.cname) keys)
  in
  let arg_fns =
    List.map
      (fun (a : Aggregate.t) ->
        match a.Aggregate.arg with
        | None -> fun _ -> None
        | Some e ->
          let f = Expr.compile in_schema e in
          fun tup -> Some (f tup))
      aggs
  in
  let tbl : (Tuple.t, Aggregate.state list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Relation.iter
    (fun tup ->
      let k = Tuple.project_arr tup key_idx in
      let states =
        match Hashtbl.find_opt tbl k with
        | Some s -> s
        | None ->
          order := k :: !order;
          List.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) aggs
      in
      let states' =
        List.map2 (fun st f -> Aggregate.step st (f tup)) states arg_fns
      in
      Hashtbl.replace tbl k states')
    input_rel;
  let out_rows =
    List.rev_map
      (fun k ->
        let states = Hashtbl.find tbl k in
        Tuple.concat k (Array.of_list (List.map Aggregate.finish states)))
      !order
  in
  let rel = Relation.create out_schema out_rows in
  match Expr.conjoin having with
  | None -> rel
  | Some p ->
    let f = Expr.compile_pred out_schema p in
    Relation.filter f rel

(* Equi-join keys: a conjunct [a = b] whose sides read only the left and
   only the right input respectively.  Every other conjunct is a residual
   checked per matching pair, so a join with no keys is the plain nested
   loop over the cross product. *)
let split_keys ls rs cond =
  let reads schema e =
    let cs = Expr.columns e in
    cs <> [] && List.for_all (Schema.mem schema) cs
  in
  let only schema other e = reads schema e && not (reads other e) in
  List.fold_right
    (fun p (keys, residual) ->
      match p with
      | Expr.Cmp (Expr.Eq, a, b) when only ls rs a && only rs ls b ->
        ((a, b) :: keys, residual)
      | Expr.Cmp (Expr.Eq, a, b) when only rs ls a && only ls rs b ->
        ((b, a) :: keys, residual)
      | p -> (keys, p :: residual))
    cond ([], [])

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.equal Value.equal a b
  let hash k = Hashtbl.hash (List.map Value.hash k)
end)

(* Hash the right input on its key values, probe with each left row in
   order: output order matches the nested loop's (left-major, right rows in
   input order) without materializing the cross product. *)
let eval_join lrel rrel cond =
  let ls = Relation.schema lrel and rs = Relation.schema rrel in
  let out_schema = Schema.append ls rs in
  let keys, residual = split_keys ls rs cond in
  let keep =
    match Expr.conjoin residual with
    | None -> fun _ -> true
    | Some p -> Expr.compile_pred out_schema p
  in
  let key_of schema es =
    let fs = List.map (Expr.compile schema) es in
    fun tup -> List.map (fun f -> f tup) fs
  in
  let lkey = key_of ls (List.map fst keys)
  and rkey = key_of rs (List.map snd keys) in
  let tbl = Key_tbl.create (max 16 (Relation.cardinality rrel)) in
  List.iter
    (fun rt -> Key_tbl.add tbl (rkey rt) rt)
    (List.rev (Relation.tuples rrel));
  let rows =
    Relation.fold
      (fun acc lt ->
        List.fold_left
          (fun acc rt ->
            let tup = Tuple.concat lt rt in
            if keep tup then tup :: acc else acc)
          acc
          (Key_tbl.find_all tbl (lkey lt)))
      [] lrel
  in
  Relation.create out_schema (List.rev rows)

let rec eval cat = function
  | Scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let rel = Heap_file.to_relation tbl.Catalog.heap in
    Relation.create s.schema (Relation.tuples rel)
  | Filter f ->
    let rel = eval cat f.input in
    Relation.filter (Expr.compile_pred (Relation.schema rel) f.pred) rel
  | Join j -> eval_join (eval cat j.left) (eval cat j.right) j.cond
  | Group g ->
    eval_group (eval cat g.input) ~agg_qual:g.agg_qual ~keys:g.keys ~aggs:g.aggs
      ~having:g.having
  | Project p ->
    let rel = eval cat p.input in
    let in_schema = Relation.schema rel in
    let fns = List.map (fun (e, _) -> Expr.compile in_schema e) p.cols in
    let out_schema = Schema.of_columns (List.map snd p.cols) in
    Relation.map_tuples out_schema
      (fun tup -> Array.of_list (List.map (fun f -> f tup) fns))
      rel

let rec pp_indent ppf (indent, t) =
  let pad = String.make indent ' ' in
  match t with
  | Scan s -> Format.fprintf ppf "%sScan %s AS %s" pad s.table s.alias
  | Filter f ->
    Format.fprintf ppf "%sFilter [%a]@\n%a" pad Expr.pp_pred f.pred pp_indent
      (indent + 2, f.input)
  | Join j ->
    let conds = String.concat " AND " (List.map Expr.pred_to_string j.cond) in
    Format.fprintf ppf "%sJoin [%s]@\n%a@\n%a" pad conds pp_indent
      (indent + 2, j.left) pp_indent (indent + 2, j.right)
  | Group g ->
    let keys = String.concat ", " (List.map Schema.column_to_string g.keys) in
    let aggs = String.concat ", " (List.map Aggregate.to_string g.aggs) in
    let hv =
      match g.having with
      | [] -> ""
      | ps -> " HAVING " ^ String.concat " AND " (List.map Expr.pred_to_string ps)
    in
    Format.fprintf ppf "%sGroup [%s | %s%s]@\n%a" pad keys aggs hv pp_indent
      (indent + 2, g.input)
  | Project p ->
    let cols =
      String.concat ", "
        (List.map
           (fun (e, c) ->
             Printf.sprintf "%s AS %s" (Expr.to_string e) (Schema.column_to_string c))
           p.cols)
    in
    Format.fprintf ppf "%sProject [%s]@\n%a" pad cols pp_indent (indent + 2, p.input)

let pp ppf t = pp_indent ppf (0, t)
