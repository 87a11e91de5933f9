type params = {
  emps : int;
  depts : int;
  age_min : int;
  age_max : int;
  sal_min : int;
  sal_max : int;
  seed : int;
  frames : int;
}

let default_params =
  {
    emps = 5000;
    depts = 50;
    age_min = 18;
    age_max = 65;
    sal_min = 1000;
    sal_max = 9000;
    seed = 42;
    frames = 128;
  }

let load ?(params = default_params) () =
  let rng = Rng.create ~seed:params.seed in
  let cat = Catalog.create ~frames:params.frames () in
  let dept_rows =
    List.init params.depts (fun i ->
        Tuple.make
          [
            Value.Int i;
            Value.Int (Rng.in_range rng 100_000 2_000_000);
            Value.String (Printf.sprintf "dept%03d" i);
          ])
  in
  let _dept =
    Catalog.add_table cat ~name:"dept"
      ~columns:[ ("dno", Datatype.Int); ("budget", Datatype.Int); ("dname", Datatype.String) ]
      ~pk:[ "dno" ] dept_rows
  in
  let emp_rows =
    List.init params.emps (fun i ->
        Tuple.make
          [
            Value.Int i;
            Value.Int (Rng.int rng params.depts);
            Value.Int (Rng.in_range rng params.sal_min params.sal_max);
            Value.Int (Rng.in_range rng params.age_min params.age_max);
          ])
  in
  let _emp =
    Catalog.add_table cat ~name:"emp"
      ~columns:
        [
          ("eno", Datatype.Int);
          ("dno", Datatype.Int);
          ("sal", Datatype.Int);
          ("age", Datatype.Int);
        ]
      ~pk:[ "eno" ]
      ~index:[ "dno"; "age" ]
      ~cluster:"dno" emp_rows
  in
  Catalog.add_foreign_key cat ~from:("emp", "dno") ~refs:("dept", "dno");
  cat

let col ~qual name = Schema.column ~qual name Datatype.Int

let avg_by_dept_view ~alias =
  let e2_dno = col ~qual:"e2" "dno" in
  let avg_sal =
    Aggregate.make Aggregate.Avg ~arg:(Expr.Col (col ~qual:"e2" "sal")) "asal"
  in
  {
    Block.v_alias = alias;
    v_rels = [ { Block.r_alias = "e2"; r_table = "emp" } ];
    v_preds = [];
    v_keys = [ e2_dno ];
    v_aggs = [ avg_sal ];
    v_having = [];
    v_out = [ Block.Out_key (e2_dno, "dno"); Block.Out_agg avg_sal ];
  }

let example1 ?(age_limit = 22) () =
  let e1 q = col ~qual:"e1" q in
  let b_dno = col ~qual:"b" "dno" in
  let b_asal = Schema.column ~qual:"b" "asal" Datatype.Float in
  {
    Block.q_views = [ avg_by_dept_view ~alias:"b" ];
    q_rels = [ { Block.r_alias = "e1"; r_table = "emp" } ];
    q_preds =
      [
        Expr.Cmp (Expr.Eq, Expr.Col (e1 "dno"), Expr.Col b_dno);
        Expr.Cmp (Expr.Lt, Expr.Col (e1 "age"), Expr.int age_limit);
        Expr.Cmp (Expr.Gt, Expr.Col (e1 "sal"), Expr.Col b_asal);
      ];
    q_grouped = false;
    q_keys = [];
    q_aggs = [];
    q_having = [];
    q_select = [ Block.Sel_col (e1 "eno", "eno"); Block.Sel_col (e1 "sal", "sal") ];
    q_order = [];
    q_limit = None;
  }

(* Example 1 after the paper's pull-up: one grouped block over the self-join
   of [emp], the view's group-by keyed on the outer row. *)
let example1_pulled_up ?(age_limit = 22) () =
  let e1 q = col ~qual:"e1" q and e2 q = col ~qual:"e2" q in
  let avg_sal = Aggregate.make Aggregate.Avg ~arg:(Expr.Col (e2 "sal")) "asal" in
  {
    Block.q_views = [];
    q_rels =
      [
        { Block.r_alias = "e1"; r_table = "emp" };
        { Block.r_alias = "e2"; r_table = "emp" };
      ];
    q_preds =
      [
        Expr.Cmp (Expr.Eq, Expr.Col (e1 "dno"), Expr.Col (e2 "dno"));
        Expr.Cmp (Expr.Lt, Expr.Col (e1 "age"), Expr.int age_limit);
      ];
    q_grouped = true;
    q_keys = [ e2 "dno"; e1 "eno"; e1 "sal" ];
    q_aggs = [ avg_sal ];
    q_having =
      [
        Expr.Cmp
          ( Expr.Gt,
            Expr.Col (e1 "sal"),
            Expr.Col (Schema.column ~qual:"" "asal" Datatype.Float) );
      ];
    q_select = [ Block.Sel_col (e1 "eno", "eno"); Block.Sel_col (e1 "sal", "sal") ];
    q_order = [];
    q_limit = None;
  }

let example2 ?(budget_limit = 1_000_000) () =
  let e q = col ~qual:"e" q in
  let d q = col ~qual:"d" q in
  let avg_sal = Aggregate.make Aggregate.Avg ~arg:(Expr.Col (e "sal")) "asal" in
  {
    Block.q_views = [];
    q_rels =
      [
        { Block.r_alias = "e"; r_table = "emp" };
        { Block.r_alias = "d"; r_table = "dept" };
      ];
    q_preds =
      [
        Expr.Cmp (Expr.Eq, Expr.Col (e "dno"), Expr.Col (d "dno"));
        Expr.Cmp (Expr.Lt, Expr.Col (d "budget"), Expr.int budget_limit);
      ];
    q_grouped = true;
    q_keys = [ e "dno" ];
    q_aggs = [ avg_sal ];
    q_having = [];
    q_select = [ Block.Sel_col (e "dno", "dno"); Block.Sel_agg avg_sal ];
    q_order = [];
    q_limit = None;
  }
