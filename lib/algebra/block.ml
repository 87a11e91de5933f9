type rel = { r_alias : string; r_table : string }

type out_item =
  | Out_key of Schema.column * string
  | Out_agg of Aggregate.t

type view = {
  v_alias : string;
  v_rels : rel list;
  v_preds : Expr.pred list;
  v_keys : Schema.column list;
  v_aggs : Aggregate.t list;
  v_having : Expr.pred list;
  v_out : out_item list;
}

type select_item =
  | Sel_col of Schema.column * string
  | Sel_agg of Aggregate.t

type query = {
  q_views : view list;
  q_rels : rel list;
  q_preds : Expr.pred list;
  q_grouped : bool;
  q_keys : Schema.column list;
  q_aggs : Aggregate.t list;
  q_having : Expr.pred list;
  q_select : select_item list;
  q_order : (string * bool) list;
  q_limit : int option;
}

let out_column v_alias = function
  | Out_key (c, name) -> Schema.column ~qual:v_alias name c.Schema.cty
  | Out_agg a -> Schema.column ~qual:v_alias a.Aggregate.out_name (Aggregate.result_type a)

let view_schema v = Schema.of_columns (List.map (out_column v.v_alias) v.v_out)

let export_mapping v =
  List.filter_map
    (function
      | Out_key (c, name) ->
        Some (Schema.column ~qual:v.v_alias name c.Schema.cty, c)
      | Out_agg _ -> None)
    v.v_out

let exported_agg_columns v =
  List.filter_map
    (function
      | Out_agg a ->
        Some
          (Schema.column ~qual:v.v_alias a.Aggregate.out_name (Aggregate.result_type a))
      | Out_key _ -> None)
    v.v_out

(* Build a left-deep join of [inputs], attaching each conjunct of [preds]
   at the lowest point where all its qualifiers are in scope.  Conjuncts
   referring to a single alias become filters on that input.  The next
   input joined is the first one (in FROM order) that a conjunct links to
   the tree built so far, so FROM order decides only true cross products. *)
let join_all inputs preds =
  (* The qualifiers an input exports: a base scan's alias, or the alias a
     view renames its output to (its inner scans are out of scope). *)
  let aliases_of t =
    List.map (fun c -> c.Schema.cqual) (Schema.columns (Logical.schema t))
  in
  let covered t qs =
    let have = aliases_of t in
    List.for_all (fun q -> List.exists (String.equal q) have) qs
  in
  (* Attach single-alias predicates as filters. *)
  let attach_local input preds =
    let mine, rest =
      List.partition
        (fun p ->
          match Expr.qualifiers p with
          | [ q ] -> covered input [ q ]
          | _ -> false)
        preds
    in
    let input =
      match Expr.conjoin mine with
      | None -> input
      | Some p -> Logical.Filter { input; pred = p }
    in
    (input, rest)
  in
  match inputs with
  | [] -> invalid_arg "Block.join_all: no inputs"
  | first :: rest_inputs ->
    let first, preds = attach_local first preds in
    let links acc input p =
      let qs = Expr.qualifiers p in
      (not (covered acc qs)) && (not (covered input qs))
      && covered (Logical.Join { left = acc; right = input; cond = [] }) qs
    in
    let rec grow acc preds = function
      | [] -> (acc, preds)
      | pending ->
        let next =
          match
            List.find_opt (fun i -> List.exists (links acc i) preds) pending
          with
          | Some i -> i
          | None -> List.hd pending
        in
        let input, preds = attach_local next preds in
        let joined0 = Logical.Join { left = acc; right = input; cond = [] } in
        let now, later =
          List.partition (fun p -> covered joined0 (Expr.qualifiers p)) preds
        in
        grow
          (Logical.Join { left = acc; right = input; cond = now })
          later
          (List.filter (fun i -> i != next) pending)
    in
    let tree, preds = grow first preds rest_inputs in
    (match Expr.conjoin preds with
     | None -> tree
     | Some p -> Logical.Filter { input = tree; pred = p })

let view_logical cat v =
  let scans =
    List.map (fun r -> Logical.scan cat ~alias:r.r_alias r.r_table) v.v_rels
  in
  let joined = join_all scans v.v_preds in
  let grouped =
    Logical.Group
      {
        input = joined;
        agg_qual = v.v_alias;
        keys = v.v_keys;
        aggs = v.v_aggs;
        having = v.v_having;
      }
  in
  let cols =
    List.map
      (fun item ->
        let out = out_column v.v_alias item in
        let src =
          match item with
          | Out_key (c, _) -> Expr.Col c
          | Out_agg a ->
            Expr.Col
              (Schema.column ~qual:v.v_alias a.Aggregate.out_name
                 (Aggregate.result_type a))
        in
        (src, out))
      v.v_out
  in
  Logical.Project { input = grouped; cols }

let top_select_tree input q =
  let sel_source = function
    | Sel_col (c, _) -> Expr.Col c
    | Sel_agg a ->
      Expr.Col (Schema.column ~qual:"" a.Aggregate.out_name (Aggregate.result_type a))
  in
  let sel_out = function
    | Sel_col (c, name) -> Schema.column name c.Schema.cty
    | Sel_agg a -> Schema.column a.Aggregate.out_name (Aggregate.result_type a)
  in
  let cols = List.map (fun s -> (sel_source s, sel_out s)) q.q_select in
  Logical.Project { input; cols }

let query_logical cat q =
  let inputs =
    List.map (view_logical cat) q.q_views
    @ List.map (fun r -> Logical.scan cat ~alias:r.r_alias r.r_table) q.q_rels
  in
  let joined = join_all inputs q.q_preds in
  let body =
    if q.q_grouped then
      Logical.Group
        { input = joined; agg_qual = ""; keys = q.q_keys; aggs = q.q_aggs;
          having = q.q_having }
    else joined
  in
  top_select_tree body q

let reference_eval cat q =
  let rel = Logical.eval cat (query_logical cat q) in
  let rel =
    match q.q_order with
    | [] -> rel
    | names ->
      let schema = Relation.schema rel in
      let keys =
        Array.of_list
          (List.map (fun (n, desc) -> (Schema.find_exn schema n, desc)) names)
      in
      let cmp a b =
        let rec loop i =
          if i >= Array.length keys then 0
          else
            let idx, desc = keys.(i) in
            let c = Value.compare a.(idx) b.(idx) in
            if c <> 0 then if desc then -c else c else loop (i + 1)
        in
        loop 0
      in
      Relation.create schema (List.stable_sort cmp (Relation.tuples rel))
  in
  match q.q_limit with
  | None -> rel
  | Some n ->
    let tuples = Relation.tuples rel in
    let rec take k = function
      | [] -> []
      | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
    in
    Relation.create (Relation.schema rel) (take n tuples)

let all_aliases q =
  List.map (fun v -> v.v_alias) q.q_views @ List.map (fun r -> r.r_alias) q.q_rels

let validate cat q =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let aliases = all_aliases q @ List.concat_map (fun v -> List.map (fun r -> r.r_alias) v.v_rels) q.q_views in
  let rec dup = function
    | [] -> None
    | a :: rest -> if List.exists (String.equal a) rest then Some a else dup rest
  in
  let* () = match dup aliases with
    | Some a -> err "duplicate alias %s" a
    | None -> Ok ()
  in
  let check_rel r =
    match Catalog.find_table cat r.r_table with
    | Some _ -> Ok ()
    | None -> err "unknown table %s" r.r_table
  in
  let rec check_all f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      check_all f rest
  in
  let* () = check_all check_rel q.q_rels in
  let* () = check_all (fun v -> check_all check_rel v.v_rels) q.q_views in
  let* () =
    check_all
      (fun v ->
        if v.v_keys = [] && v.v_aggs = [] then
          err "view %s has neither grouping columns nor aggregates" v.v_alias
        else if v.v_out = [] then err "view %s exports nothing" v.v_alias
        else Ok ())
      q.q_views
  in
  let out_names =
    List.map
      (function Sel_col (_, n) -> n | Sel_agg a -> a.Aggregate.out_name)
      q.q_select
  in
  let* () =
    check_all
      (fun (n, _desc) ->
        if List.exists (String.equal n) out_names then Ok ()
        else err "ORDER BY column %s is not an output column" n)
      q.q_order
  in
  let* () =
    match q.q_limit with
    | Some n when n < 0 -> err "negative LIMIT"
    | Some _ | None -> Ok ()
  in
  if q.q_grouped then
    check_all
      (function
        | Sel_col (c, _) ->
          if List.exists (fun k -> Schema.column_equal k c) q.q_keys then Ok ()
          else err "select column %s not in GROUP BY" (Schema.column_to_string c)
        | Sel_agg _ -> Ok ())
      q.q_select
  else if q.q_aggs <> [] then err "aggregates without grouped outer block"
  else Ok ()

let pp_rel ppf r =
  if String.equal r.r_alias r.r_table then Format.pp_print_string ppf r.r_table
  else Format.fprintf ppf "%s AS %s" r.r_table r.r_alias

let pp_view ppf v =
  let keys = String.concat ", " (List.map Schema.column_to_string v.v_keys) in
  let outs =
    String.concat ", "
      (List.map
         (function
           | Out_key (c, n) ->
             Printf.sprintf "%s AS %s" (Schema.column_to_string c) n
           | Out_agg a -> Aggregate.to_string a)
         v.v_out)
  in
  Format.fprintf ppf "%s := SELECT %s FROM %s" v.v_alias outs
    (String.concat ", " (List.map (Format.asprintf "%a" pp_rel) v.v_rels));
  if v.v_preds <> [] then
    Format.fprintf ppf " WHERE %s"
      (String.concat " AND " (List.map Expr.pred_to_string v.v_preds));
  Format.fprintf ppf " GROUP BY %s" keys;
  if v.v_having <> [] then
    Format.fprintf ppf " HAVING %s"
      (String.concat " AND " (List.map Expr.pred_to_string v.v_having))

let pp ppf q =
  List.iter (fun v -> Format.fprintf ppf "%a@\n" pp_view v) q.q_views;
  let sel =
    String.concat ", "
      (List.map
         (function
           | Sel_col (c, n) ->
             Printf.sprintf "%s AS %s" (Schema.column_to_string c) n
           | Sel_agg a -> Aggregate.to_string a)
         q.q_select)
  in
  let froms =
    List.map (fun v -> v.v_alias) q.q_views
    @ List.map (Format.asprintf "%a" pp_rel) q.q_rels
  in
  Format.fprintf ppf "SELECT %s FROM %s" sel (String.concat ", " froms);
  if q.q_preds <> [] then
    Format.fprintf ppf " WHERE %s"
      (String.concat " AND " (List.map Expr.pred_to_string q.q_preds));
  if q.q_grouped then begin
    Format.fprintf ppf " GROUP BY %s"
      (String.concat ", " (List.map Schema.column_to_string q.q_keys));
    if q.q_having <> [] then
      Format.fprintf ppf " HAVING %s"
        (String.concat " AND " (List.map Expr.pred_to_string q.q_having))
  end
