(* Tests for the minidb relational substrate: values, schemas, tables,
   relational operators (the plaintext oracle for the protocols), CSV. *)

open Minidb

let value = Alcotest.testable Value.pp Value.equal
let table = Alcotest.testable Table.pp Table.equal

(* A small pair of test tables reused across relop tests. *)
let people =
  Table.create
    (Schema.make
       [ Schema.col "id" Value.TInt; Schema.col "name" Value.TText; Schema.col ~nullable:true "age" Value.TInt ])
    [
      [| Value.Int 1; Value.Text "ana"; Value.Int 34 |];
      [| Value.Int 2; Value.Text "bo"; Value.Null |];
      [| Value.Int 3; Value.Text "cy"; Value.Int 19 |];
      [| Value.Int 4; Value.Text "dee"; Value.Int 34 |];
    ]

let orders =
  Table.create
    (Schema.make [ Schema.col "person" Value.TInt; Schema.col "item" Value.TText ])
    [
      [| Value.Int 1; Value.Text "apple" |];
      [| Value.Int 1; Value.Text "beet" |];
      [| Value.Int 3; Value.Text "corn" |];
      [| Value.Int 9; Value.Text "dill" |];
    ]

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_order () =
  Alcotest.(check bool) "null first" true (Value.compare Value.Null (Value.Int (-5)) < 0);
  Alcotest.(check bool) "ints" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "text" true (Value.compare (Value.Text "a") (Value.Text "b") < 0);
  Alcotest.(check bool) "cross-type by rank" true
    (Value.compare (Value.Bool true) (Value.Int 0) < 0)

let test_value_parse () =
  Alcotest.check value "int" (Value.Int 42) (Value.of_string Value.TInt "42");
  Alcotest.check value "negative" (Value.Int (-7)) (Value.of_string Value.TInt "-7");
  Alcotest.check value "bool" (Value.Bool true) (Value.of_string Value.TBool "TRUE");
  Alcotest.check value "float" (Value.Float 2.5) (Value.of_string Value.TFloat "2.5");
  Alcotest.check value "null" Value.Null (Value.of_string Value.TInt "");
  Alcotest.check value "text" (Value.Text "x y") (Value.of_string Value.TText "x y");
  Alcotest.(check bool) "bad int raises" true
    (try
       ignore (Value.of_string Value.TInt "4x");
       false
     with Invalid_argument _ -> true)

let test_value_key_injective () =
  (* Distinct values of distinct types never share a key. *)
  let vs =
    [
      Value.Null; Value.Bool true; Value.Bool false; Value.Int 1; Value.Int 0;
      Value.Float 1.; Value.Text "1"; Value.Text "I1"; Value.Text "";
    ]
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "keys differ: %d %d" i j)
              false
              (String.equal (Value.key a) (Value.key b)))
        vs)
    vs

let test_ty_roundtrip () =
  List.iter
    (fun ty ->
      Alcotest.(check bool) "ty roundtrip" true
        (Value.ty_of_string (Value.ty_to_string ty) = ty))
    [ Value.TBool; Value.TInt; Value.TFloat; Value.TText ]

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_validation () =
  Alcotest.(check bool) "dup name raises" true
    (try
       ignore (Schema.make [ Schema.col "a" Value.TInt; Schema.col "a" Value.TText ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty name raises" true
    (try
       ignore (Schema.make [ Schema.col "" Value.TInt ]);
       false
     with Invalid_argument _ -> true)

let test_schema_lookup () =
  let s = Table.schema people in
  Alcotest.(check int) "id" 0 (Schema.index_of s "id");
  Alcotest.(check int) "age" 2 (Schema.index_of s "age");
  Alcotest.(check bool) "mem" true (Schema.mem s "name");
  Alcotest.(check bool) "not mem" false (Schema.mem s "salary");
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Schema.index_of s "salary");
       false
     with Not_found -> true)

let test_schema_prefix_concat () =
  let s = Schema.make [ Schema.col "x" Value.TInt ] in
  let t = Schema.make [ Schema.col "x" Value.TText ] in
  let joined = Schema.concat (Schema.rename_with_prefix s "l") (Schema.rename_with_prefix t "r") in
  Alcotest.(check int) "l.x" 0 (Schema.index_of joined "l.x");
  Alcotest.(check int) "r.x" 1 (Schema.index_of joined "r.x");
  Alcotest.(check bool) "collision raises" true
    (try
       ignore (Schema.concat s s);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_typecheck () =
  let s = Schema.make [ Schema.col "id" Value.TInt ] in
  Alcotest.(check bool) "wrong type raises" true
    (try
       ignore (Table.create s [ [| Value.Text "nope" |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong arity raises" true
    (try
       ignore (Table.create s [ [| Value.Int 1; Value.Int 2 |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "null in non-nullable raises" true
    (try
       ignore (Table.create s [ [| Value.Null |] ]);
       false
     with Invalid_argument _ -> true)

let test_table_distinct_values () =
  Alcotest.(check (list value)) "ages (null excluded, sorted, distinct)"
    [ Value.Int 19; Value.Int 34 ]
    (Table.distinct_values people "age")

let test_table_duplicate_distribution () =
  Alcotest.(check (list (pair value int))) "order counts"
    [ (Value.Int 1, 2); (Value.Int 3, 1); (Value.Int 9, 1) ]
    (Table.duplicate_distribution orders "person")

let test_table_ext () =
  Alcotest.(check int) "ext(1) has 2 rows" 2 (List.length (Table.ext orders "person" (Value.Int 1)));
  Alcotest.(check int) "ext(9) has 1 row" 1 (List.length (Table.ext orders "person" (Value.Int 9)));
  Alcotest.(check int) "ext(5) empty" 0 (List.length (Table.ext orders "person" (Value.Int 5)))

let test_table_append () =
  let t = Table.append (Table.empty (Table.schema orders)) (Table.rows orders) in
  Alcotest.check table "append from empty" orders t

(* ------------------------------------------------------------------ *)
(* Relop                                                               *)
(* ------------------------------------------------------------------ *)

let test_select () =
  let adults = Relop.select (fun t r -> Value.compare (Table.get t r "age") (Value.Int 30) > 0) people in
  Alcotest.(check int) "two adults over 30" 2 (Table.cardinality adults)

let test_select_eq () =
  Alcotest.(check int) "bo by name" 1 (Table.cardinality (Relop.select_eq people "name" (Value.Text "bo")))

let test_project () =
  let p = Relop.project people [ "name"; "id" ] in
  Alcotest.(check int) "arity" 2 (Schema.arity (Table.schema p));
  Alcotest.(check int) "reordered: name first" 0 (Schema.index_of (Table.schema p) "name");
  Alcotest.check value "first row name" (Value.Text "ana")
    (Table.get p (List.hd (Table.rows p)) "name")

let test_distinct () =
  let dup = Table.append orders (Table.rows orders) in
  Alcotest.(check int) "8 rows with dups" 8 (Table.cardinality dup);
  Alcotest.(check int) "4 distinct" 4 (Table.cardinality (Relop.distinct dup))

let test_equijoin () =
  let j = Relop.equijoin people orders ~on:("id", "person") in
  (* ids 1 (x2 orders) and 3 join; 2, 4 and order-person 9 do not. *)
  Alcotest.(check int) "3 joined rows" 3 (Table.cardinality j);
  let names =
    List.sort String.compare (List.map Value.to_string (Table.column_values j "l.name"))
  in
  Alcotest.(check (list string)) "join partners" [ "ana"; "ana"; "cy" ] names

let test_equijoin_null_never_joins () =
  let l =
    Table.create
      (Schema.make [ Schema.col ~nullable:true "k" Value.TInt ])
      [ [| Value.Null |]; [| Value.Int 1 |] ]
  in
  let r = l in
  Alcotest.(check int) "only the non-null pair joins" 1
    (Table.cardinality (Relop.equijoin l r ~on:("k", "k")))

let test_equijoin_size_matches_materialized () =
  Alcotest.(check int) "size = |join|"
    (Table.cardinality (Relop.equijoin people orders ~on:("id", "person")))
    (Relop.equijoin_size people orders ~on:("id", "person"))

let test_intersect_values () =
  Alcotest.(check (list value)) "V_l ∩ V_r"
    [ Value.Int 1; Value.Int 3 ]
    (Relop.intersect_values people orders ~on:("id", "person"))

let test_group_count () =
  let g = Relop.group_count orders [ "person" ] in
  Alcotest.(check (list (pair (list value) int))) "counts"
    [ ([ Value.Int 1 ], 2); ([ Value.Int 3 ], 1); ([ Value.Int 9 ], 1) ]
    g

let test_group_count_multi_key () =
  let g = Relop.group_count people [ "age" ] in
  Alcotest.(check (list (pair (list value) int))) "group by nullable age"
    [ ([ Value.Null ], 1); ([ Value.Int 19 ], 1); ([ Value.Int 34 ], 2) ]
    g

let test_order_by () =
  let o = Relop.order_by people [ "age"; "name" ] in
  let names = List.map (fun r -> Value.to_string (Table.get o r "name")) (Table.rows o) in
  Alcotest.(check (list string)) "null-first age order" [ "bo"; "cy"; "ana"; "dee" ] names

(* ------------------------------------------------------------------ *)
(* Csv                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_roundtrip () =
  Alcotest.check table "roundtrip people" people (Csv.parse_string (Csv.to_string people));
  Alcotest.check table "roundtrip orders" orders (Csv.parse_string (Csv.to_string orders))

let test_csv_quoting () =
  let t =
    Table.create
      (Schema.make [ Schema.col "s" Value.TText ])
      [
        [| Value.Text "with,comma" |];
        [| Value.Text "with\"quote" |];
        [| Value.Text "with\nnewline" |];
      ]
  in
  Alcotest.check table "quoted roundtrip" t (Csv.parse_string (Csv.to_string t))

let test_csv_parse_known () =
  let t = Csv.parse_string "id:int,name:text\n1,ana\n2,\"bo,zo\"\n" in
  Alcotest.(check int) "2 rows" 2 (Table.cardinality t);
  Alcotest.check value "quoted field" (Value.Text "bo,zo")
    (Table.get t (List.nth (Table.rows t) 1) "name")

let test_csv_nullable () =
  let t = Csv.parse_string "id:int,age:int?\n1,\n2,5\n" in
  Alcotest.check value "null age" Value.Null (Table.get t (List.hd (Table.rows t)) "age")

let test_csv_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects: " ^ String.escaped s) true
        (try
           ignore (Csv.parse_string s);
           false
         with Invalid_argument _ -> true))
    [ ""; "noheadertype\n1\n"; "a:int\n1,2\n"; "a:wat\n1\n" ]

let test_csv_file_io () =
  let path = Filename.temp_file "psi_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save path people;
      Alcotest.check table "load . save = id" people (Csv.load path))

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let with_db f =
  let path = Filename.temp_file "psi_storage" ".mdb" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_storage_roundtrip () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "people" (Table.schema people);
      Storage.insert db "people" (Table.rows people);
      Storage.create_table db "orders" (Table.schema orders);
      Storage.insert db "orders" (Table.rows orders);
      Storage.close db;
      let db2 = Storage.open_db path in
      Alcotest.(check (list string)) "catalog" [ "orders"; "people" ] (Storage.tables db2);
      Alcotest.check table "people survive" people (Storage.table db2 "people");
      Alcotest.check table "orders survive" orders (Storage.table db2 "orders");
      Storage.close db2)

let test_storage_incremental_inserts () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "t" (Table.schema orders);
      List.iter (fun r -> Storage.insert db "t" [ r ]) (Table.rows orders);
      Storage.close db;
      let db2 = Storage.open_db path in
      Alcotest.check table "one-at-a-time inserts" orders (Storage.table db2 "t");
      Storage.close db2)

let test_storage_drop () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "t" (Table.schema orders);
      Storage.drop_table db "t";
      Storage.close db;
      let db2 = Storage.open_db path in
      Alcotest.(check (list string)) "dropped" [] (Storage.tables db2);
      Alcotest.(check bool) "table raises" true
        (try
           ignore (Storage.table db2 "t");
           false
         with Not_found -> true);
      Storage.close db2)

let test_storage_validation () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "t" (Table.schema orders);
      Alcotest.(check bool) "duplicate create" true
        (try
           Storage.create_table db "t" (Table.schema orders);
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) "insert into missing" true
        (try
           Storage.insert db "nope" [];
           false
         with Not_found -> true);
      Alcotest.(check bool) "type mismatch rejected" true
        (try
           Storage.insert db "t" [ [| Value.Text "x" |] ];
           false
         with Invalid_argument _ -> true);
      Storage.close db;
      Alcotest.(check bool) "use after close" true
        (try
           Storage.insert db "t" [];
           false
         with Invalid_argument _ -> true))

let test_storage_torn_tail_recovery () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "t" (Table.schema orders);
      Storage.insert db "t" (Table.rows orders);
      Storage.close db;
      let good_len = (Unix.stat path).Unix.st_size in
      (* Simulate a crash mid-append: a truncated record at the tail. *)
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      output_string oc "\x00\x00\x00\xffgarbage-that-is-too-short";
      close_out oc;
      let db2 = Storage.open_db path in
      Alcotest.check table "prefix recovered" orders (Storage.table db2 "t");
      (* The torn tail was truncated away; new appends replay cleanly. *)
      Storage.insert db2 "t" [ [| Value.Int 5; Value.Text "extra" |] ];
      Storage.close db2;
      let db3 = Storage.open_db path in
      Alcotest.(check int) "append after recovery" 5
        (Table.cardinality (Storage.table db3 "t"));
      Storage.close db3;
      ignore good_len)

let test_storage_corrupt_checksum () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "t" (Table.schema orders);
      Storage.insert db "t" (Table.rows orders);
      Storage.close db;
      (* Flip a byte inside the last record's body. *)
      let ic = open_in_bin path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let flipped =
        String.mapi
          (fun i c -> if i = String.length content - 6 then Char.chr (Char.code c lxor 0xff) else c)
          content
      in
      let oc = open_out_bin path in
      output_string oc flipped;
      close_out oc;
      let db2 = Storage.open_db path in
      (* The corrupted insert record is dropped; the create survives. *)
      Alcotest.(check (list string)) "table exists" [ "t" ] (Storage.tables db2);
      Alcotest.(check int) "corrupt insert dropped" 0
        (Table.cardinality (Storage.table db2 "t"));
      Storage.close db2)

let test_storage_checkpoint () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.create_table db "t" (Table.schema orders);
      (* Many tiny inserts bloat the log... *)
      for _ = 1 to 20 do
        Storage.insert db "t" (Table.rows orders)
      done;
      Storage.drop_table db "t";
      Storage.create_table db "t" (Table.schema orders);
      Storage.insert db "t" (Table.rows orders);
      let before = (Unix.stat path).Unix.st_size in
      Storage.checkpoint db;
      let after = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool)
        (Printf.sprintf "compacted %d -> %d" before after)
        true (after < before);
      (* State unchanged, and the file still appends/replays fine. *)
      Alcotest.check table "state preserved" orders (Storage.table db "t");
      Storage.insert db "t" [ [| Value.Int 7; Value.Text "post" |] ];
      Storage.close db;
      let db2 = Storage.open_db path in
      Alcotest.(check int) "replay after checkpoint" 5
        (Table.cardinality (Storage.table db2 "t"));
      Storage.close db2)

let test_storage_rejects_foreign_file () =
  with_db (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a database";
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Storage.open_db path);
           false
         with Invalid_argument _ -> true))

(* A crash while creating a database must never leave a file that
   cannot be opened, and an empty or short file is refused typed. *)
let test_storage_rejects_short_file () =
  with_db (fun path ->
      let db = Storage.open_db path in
      Storage.close db;
      let header = In_channel.with_open_bin path In_channel.input_all in
      let db = Storage.open_db path in
      Alcotest.(check (list string)) "a fresh database reopens" [] (Storage.tables db);
      Storage.close db;
      List.iter
        (fun keep ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub header 0 keep));
          Alcotest.(check bool)
            (Printf.sprintf "%d-byte file rejected" keep)
            true
            (try
               ignore (Storage.open_db path);
               false
             with Invalid_argument _ -> true))
        [ 0; 3; String.length header - 1 ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "minidb"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "parsing" `Quick test_value_parse;
          Alcotest.test_case "key injectivity" `Quick test_value_key_injective;
          Alcotest.test_case "type name roundtrip" `Quick test_ty_roundtrip;
        ] );
      ( "schema",
        [
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "prefix/concat" `Quick test_schema_prefix_concat;
        ] );
      ( "table",
        [
          Alcotest.test_case "typechecking" `Quick test_table_typecheck;
          Alcotest.test_case "distinct_values" `Quick test_table_distinct_values;
          Alcotest.test_case "duplicate_distribution" `Quick test_table_duplicate_distribution;
          Alcotest.test_case "ext" `Quick test_table_ext;
          Alcotest.test_case "append" `Quick test_table_append;
        ] );
      ( "relop",
        [
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "select_eq" `Quick test_select_eq;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "equijoin" `Quick test_equijoin;
          Alcotest.test_case "null never joins" `Quick test_equijoin_null_never_joins;
          Alcotest.test_case "equijoin_size" `Quick test_equijoin_size_matches_materialized;
          Alcotest.test_case "intersect_values" `Quick test_intersect_values;
          Alcotest.test_case "group_count" `Quick test_group_count;
          Alcotest.test_case "group_count nullable key" `Quick test_group_count_multi_key;
          Alcotest.test_case "order_by" `Quick test_order_by;
        ] );
      ( "storage",
        [
          Alcotest.test_case "create/insert/reopen roundtrip" `Quick test_storage_roundtrip;
          Alcotest.test_case "incremental inserts" `Quick test_storage_incremental_inserts;
          Alcotest.test_case "drop table" `Quick test_storage_drop;
          Alcotest.test_case "validation" `Quick test_storage_validation;
          Alcotest.test_case "torn-tail crash recovery" `Quick test_storage_torn_tail_recovery;
          Alcotest.test_case "corrupt checksum dropped" `Quick test_storage_corrupt_checksum;
          Alcotest.test_case "checkpoint compacts" `Quick test_storage_checkpoint;
          Alcotest.test_case "foreign file rejected" `Quick test_storage_rejects_foreign_file;
          Alcotest.test_case "empty or short file rejected" `Quick
            test_storage_rejects_short_file;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "parse known" `Quick test_csv_parse_known;
          Alcotest.test_case "nullable" `Quick test_csv_nullable;
          Alcotest.test_case "malformed rejected" `Quick test_csv_errors;
          Alcotest.test_case "file io" `Quick test_csv_file_io;
        ] );
    ]
