(* Catalog behaviour: keys, clustering, statistics, foreign keys, and the
   hidden-rowid fallback. *)

let rows n f = List.init n f

let basic_table () =
  let cat = Catalog.create ~frames:32 () in
  let tbl =
    Catalog.add_table cat ~name:"t"
      ~columns:[ ("k", Datatype.Int); ("v", Datatype.Int) ]
      ~pk:[ "k" ]
      (rows 100 (fun i -> Tuple.make [ Value.Int i; Value.Int (i mod 7) ]))
  in
  Alcotest.(check int) "cardinality" 100 tbl.Catalog.tstats.Stats.card;
  Alcotest.(check bool) "pk index built" true (Catalog.index_on tbl "k" <> None);
  Alcotest.(check bool) "no index on v" true (Catalog.index_on tbl "v" = None);
  let vs = Catalog.column_stats tbl "v" in
  Alcotest.(check int) "ndv of v" 7 vs.Stats.ndv;
  Alcotest.(check bool) "superkey" true (Catalog.is_superkey tbl [ "k"; "v" ]);
  Alcotest.(check bool) "not a superkey" false (Catalog.is_superkey tbl [ "v" ])

let clustering_sorts_rows () =
  let cat = Catalog.create ~frames:32 () in
  let tbl =
    Catalog.add_table cat ~name:"t"
      ~columns:[ ("k", Datatype.Int); ("g", Datatype.Int) ]
      ~pk:[ "k" ] ~cluster:"g"
      (rows 50 (fun i -> Tuple.make [ Value.Int i; Value.Int (49 - i) ]))
  in
  Alcotest.(check (option string)) "clustered column" (Some "g") tbl.Catalog.clustered;
  let rel = Heap_file.to_relation tbl.Catalog.heap in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Value.compare (Tuple.get a 1) (Tuple.get b 1) <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "heap physically ordered by g" true
    (sorted (Relation.tuples rel))

let default_clustering_is_pk () =
  let cat = Catalog.create ~frames:32 () in
  let tbl =
    Catalog.add_table cat ~name:"t"
      ~columns:[ ("k", Datatype.Int) ]
      ~pk:[ "k" ]
      (rows 10 (fun i -> Tuple.make [ Value.Int (9 - i) ]))
  in
  Alcotest.(check (option string)) "clustered on pk head" (Some "k") tbl.Catalog.clustered

let rowid_fallback () =
  let cat = Catalog.create ~frames:32 () in
  let tbl =
    Catalog.add_table cat ~name:"t"
      ~columns:[ ("v", Datatype.Int) ]
      ~pk:[]
      (rows 5 (fun _ -> Tuple.make [ Value.Int 1 ]))
  in
  Alcotest.(check (list string)) "rid key" [ "_rid" ] tbl.Catalog.primary_key;
  Alcotest.(check int) "rid column appended" 2 (Schema.arity tbl.Catalog.tschema);
  let rid_stats = Catalog.column_stats tbl "_rid" in
  Alcotest.(check int) "rids distinct" 5 rid_stats.Stats.ndv

let foreign_keys () =
  let cat = Catalog.create ~frames:32 () in
  ignore
    (Catalog.add_table cat ~name:"parent" ~columns:[ ("k", Datatype.Int) ] ~pk:[ "k" ]
       (rows 5 (fun i -> Tuple.make [ Value.Int i ])));
  ignore
    (Catalog.add_table cat ~name:"child"
       ~columns:[ ("k", Datatype.Int); ("fk", Datatype.Int) ]
       ~pk:[ "k" ]
       (rows 10 (fun i -> Tuple.make [ Value.Int i; Value.Int (i mod 5) ])));
  Catalog.add_foreign_key cat ~from:("child", "fk") ~refs:("parent", "k");
  Alcotest.(check bool) "declared" true
    (Catalog.is_fk_join cat ~from:("child", "fk") ~refs:("parent", "k"));
  Alcotest.(check bool) "direction matters" false
    (Catalog.is_fk_join cat ~from:("parent", "k") ~refs:("child", "fk"));
  (match Catalog.add_foreign_key cat ~from:("child", "fk") ~refs:("parent", "nosuch") with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "bad fk target accepted");
  (match Catalog.add_foreign_key cat ~from:("child", "fk") ~refs:("child", "fk") with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "non-pk fk target accepted")

let duplicate_and_errors () =
  let cat = Catalog.create ~frames:32 () in
  ignore
    (Catalog.add_table cat ~name:"t" ~columns:[ ("k", Datatype.Int) ] ~pk:[ "k" ]
       (rows 3 (fun i -> Tuple.make [ Value.Int i ])));
  (match
     Catalog.add_table cat ~name:"t" ~columns:[ ("k", Datatype.Int) ] ~pk:[ "k" ]
       (rows 1 (fun i -> Tuple.make [ Value.Int i ]))
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "duplicate table accepted");
  (match
     Catalog.add_table cat ~name:"u" ~columns:[ ("k", Datatype.Int) ] ~pk:[ "nosuch" ]
       (rows 1 (fun i -> Tuple.make [ Value.Int i ]))
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad pk column accepted");
  Alcotest.(check bool) "find_table none" true (Catalog.find_table cat "nosuch" = None)

(* Matview maintenance swaps an extent's rows while readers plan and run
   against it: a reader must always find the table, holding either the old
   rows or the new ones. *)
let replace_rows_never_unlists () =
  let cat = Catalog.create ~frames:64 () in
  let mk base = rows 50 (fun i -> Tuple.make [ Value.Int i; Value.Int base ]) in
  ignore
    (Catalog.add_table cat ~name:"other" ~columns:[ ("k", Datatype.Int) ] ~pk:[ "k" ]
       [ Tuple.make [ Value.Int 0 ] ]);
  ignore
    (Catalog.add_table cat ~name:"ext"
       ~columns:[ ("k", Datatype.Int); ("v", Datatype.Int) ]
       ~pk:[ "k" ] (mk 0));
  let swaps = 2000 in
  let done_ = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let misses = ref 0 and reads = ref 0 in
        while not (Atomic.get done_) do
          (match Catalog.table_exn cat "ext" with
           | _ -> ()
           | exception Invalid_argument _ -> incr misses);
          incr reads
        done;
        (!misses, !reads))
  in
  for i = 1 to swaps do
    ignore (Catalog.replace_rows cat "ext" (mk i))
  done;
  Atomic.set done_ true;
  let misses, reads = Domain.join reader in
  Alcotest.(check int) "reader never misses the table" 0 misses;
  Alcotest.(check bool) "reader ran" true (reads > 0);
  Alcotest.(check (list string)) "position kept" [ "other"; "ext" ]
    (List.map (fun t -> t.Catalog.tname) (Catalog.tables cat));
  Alcotest.(check int) "version bumped per swap" swaps (Catalog.table_version cat "ext")

let tests =
  [
    Alcotest.test_case "table registration and stats" `Quick basic_table;
    Alcotest.test_case "clustering sorts the heap" `Quick clustering_sorts_rows;
    Alcotest.test_case "default clustering is the pk" `Quick default_clustering_is_pk;
    Alcotest.test_case "rowid fallback for keyless tables" `Quick rowid_fallback;
    Alcotest.test_case "foreign key declarations" `Quick foreign_keys;
    Alcotest.test_case "error cases" `Quick duplicate_and_errors;
    Alcotest.test_case "replace_rows never unlists the table" `Quick
      replace_rows_never_unlists;
  ]
