(* Tests for the SQL subset: lexer/parser, the local evaluator (against
   hand-computed results), and the private executor (against the local
   evaluator as oracle). *)

open Minidb
module Sql = Minidb.Sql

let g64 = Crypto.Group.named Crypto.Group.Test64
let cfg = Psi.Protocol.config g64

let people =
  Csv.parse_string
    "id:int,name:text,age:int?,city:text\n\
     1,ana,34,berlin\n\
     2,bo,,paris\n\
     3,cy,19,berlin\n\
     4,dee,34,oslo\n"

let orders =
  Csv.parse_string
    "person:int,item:text,amount:int\n\
     1,apple,5\n\
     1,beet,3\n\
     3,corn,7\n\
     9,dill,2\n"

let resolve = function
  | "people" -> people
  | "orders" -> orders
  | t -> raise Not_found |> fun _ -> failwith ("unknown table " ^ t)

(* Compare tables by cell content, order-insensitively. *)
let cells t =
  Table.rows t
  |> List.map (fun r -> List.map Value.key (Array.to_list r))
  |> List.sort (List.compare String.compare)

let check_cells name expected t = Alcotest.(check (list (list string))) name expected (cells t)

let keys l = List.map (List.map Value.key) l

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let normalize s = Format.asprintf "%a" Sql.pp_query (Sql.parse s)

let test_parse_roundtrip () =
  List.iter
    (fun (input, expected) -> Alcotest.(check string) input expected (normalize input))
    [
      ("select * from people", "SELECT * FROM people");
      ( "SELECT name, age FROM people WHERE age >= 21",
        "SELECT name, age FROM people WHERE age >= 21" );
      ( "select p.name from people p where p.city = 'berlin'",
        "SELECT p.name FROM people p WHERE p.city = 'berlin'" );
      ( "select count(*) from people group by city",
        "SELECT COUNT(*) FROM people GROUP BY city" );
      ( "select sum(amount) as total from orders",
        "SELECT SUM(amount) AS total FROM orders" );
      ( "select count(distinct o.person) as n from orders o",
        "SELECT COUNT(DISTINCT o.person) AS n FROM orders o" );
      ( "select * from people, orders where id = person and age > 20",
        "SELECT * FROM people, orders WHERE id = person AND age > 20" );
      ( "select * from people join orders on id = person where amount <> 3",
        "SELECT * FROM people, orders WHERE id = person AND amount <> 3" );
      ("select * from people where age != 34", "SELECT * FROM people WHERE age <> 34");
      ("select * from people where name = 'o''hara'",
        "SELECT * FROM people WHERE name = 'o'hara'");
      ("select * from people where age = -5", "SELECT * FROM people WHERE age = -5");
      ("select * from people where age = 2.5", "SELECT * FROM people WHERE age = 2.5");
      ("SELECT * FROM people;", "SELECT * FROM people");
    ]

let test_parse_errors () =
  List.iter
    (fun q ->
      Alcotest.(check bool) ("rejects: " ^ q) true
        (try
           ignore (Sql.parse q);
           false
         with Sql.Parse_error _ -> true))
    [
      "";
      "select";
      "select from people";
      "select * people";
      "select * from";
      "select * from people where";
      "select * from people where age >";
      "select * from people where age = 'unterminated";
      "select * from people extra garbage";
      "select count(x) from people";
      "select distinct a from people";
      "select sum(distinct a) from people";
      "select count(distinct *) from people";
      "select * from people where age ! 3";
    ]

let fuzz_parser_never_crashes =
  (* Arbitrary input must either parse or raise Parse_error — nothing
     else (no Not_found, no array bounds, no stack overflow). *)
  let gen =
    QCheck2.Gen.(
      let atom =
        oneof
          [
            return "select"; return "from"; return "where"; return "and"; return "group";
            return "by"; return "*"; return ","; return "."; return "("; return ")";
            return "="; return "<"; return ">="; return "'txt'"; return "42"; return "-3.5";
            return "tbl"; return "col"; return "sum"; return "count"; return "join";
            return "on"; return "as"; return "null"; return "'"; return "!"; return "@";
            return "distinct";
          ]
      in
      map (String.concat " ") (list_size (int_range 0 15) atom))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser total on fuzz input" ~count:2000 ~print:(fun s -> s) gen
       (fun input ->
         match Sql.parse input with
         | _ -> true
         | exception Sql.Parse_error _ -> true))

let fuzz_parser_random_bytes =
  let gen =
    QCheck2.Gen.(
      bind (int_range 0 60) (fun n ->
          map
            (fun l -> String.init n (List.nth l))
            (list_repeat n (map Char.chr (int_range 1 127)))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser total on random bytes" ~count:2000 ~print:String.escaped
       gen (fun input ->
         match Sql.parse input with
         | _ -> true
         | exception Sql.Parse_error _ -> true))

(* ------------------------------------------------------------------ *)
(* Local evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let run_sql q = Sql.execute resolve (Sql.parse q)

let test_select_star () =
  Alcotest.(check int) "all rows" 4 (Table.cardinality (run_sql "select * from people"))

let test_projection () =
  let t = run_sql "select name, city from people where id = 3" in
  check_cells "projection" (keys [ [ Value.Text "cy"; Value.Text "berlin" ] ]) t

let test_where_operators () =
  let count q = Table.cardinality (run_sql q) in
  Alcotest.(check int) "eq" 2 (count "select * from people where age = 34");
  Alcotest.(check int) "ne" 1 (count "select * from people where age <> 34");
  Alcotest.(check int) "lt" 1 (count "select * from people where age < 34");
  Alcotest.(check int) "le" 3 (count "select * from people where age <= 34");
  Alcotest.(check int) "gt" 0 (count "select * from people where age > 34");
  Alcotest.(check int) "ge" 2 (count "select * from people where age >= 34");
  Alcotest.(check int) "and" 1
    (count "select * from people where age = 34 and city = 'berlin'");
  Alcotest.(check int) "text cmp" 2 (count "select * from people where city = 'berlin'")

let test_null_semantics () =
  (* bo's age is NULL: never matches any comparison. *)
  Alcotest.(check int) "null never equal" 0
    (Table.cardinality (run_sql "select * from people where age = null"));
  Alcotest.(check int) "null not counted" 3
    (Table.cardinality (run_sql "select * from people where age >= 0"))

let test_group_by_count () =
  let t = run_sql "select city, count(*) from people group by city" in
  check_cells "city counts"
    (keys
       [
         [ Value.Text "berlin"; Value.Int 2 ];
         [ Value.Text "oslo"; Value.Int 1 ];
         [ Value.Text "paris"; Value.Int 1 ];
       ])
    t

let test_group_by_sum () =
  let t = run_sql "select person, sum(amount) from orders group by person" in
  check_cells "sum per person"
    (keys
       [
         [ Value.Int 1; Value.Int 8 ];
         [ Value.Int 3; Value.Int 7 ];
         [ Value.Int 9; Value.Int 2 ];
       ])
    t

let test_whole_table_aggregate () =
  check_cells "count all" (keys [ [ Value.Int 4 ] ]) (run_sql "select count(*) from people");
  check_cells "sum all" (keys [ [ Value.Int 17 ] ]) (run_sql "select sum(amount) from orders");
  (* Aggregate over an empty relation still yields one row. *)
  check_cells "count none" (keys [ [ Value.Int 0 ] ])
    (run_sql "select count(*) from people where age > 99");
  check_cells "sum none is null" [ [ Value.key Value.Null ] ]
    (run_sql "select sum(amount) from orders where amount > 99");
  (* COUNT(DISTINCT): NULLs dropped (bo has no age), duplicates once. *)
  check_cells "count distinct drops nulls" (keys [ [ Value.Int 2 ] ])
    (run_sql "select count(distinct age) from people");
  check_cells "count distinct counts duplicates once" (keys [ [ Value.Int 3 ] ])
    (run_sql "select count(distinct person) from orders")

let test_two_table_join () =
  let t = run_sql "select name, item from people, orders where id = person" in
  check_cells "join rows"
    (keys
       [
         [ Value.Text "ana"; Value.Text "apple" ];
         [ Value.Text "ana"; Value.Text "beet" ];
         [ Value.Text "cy"; Value.Text "corn" ];
       ])
    t;
  (* JOIN ... ON spelling is equivalent. *)
  let t2 = run_sql "select name, item from people join orders on id = person" in
  Alcotest.(check (list (list string))) "join on equivalent" (cells t) (cells t2)

let test_join_with_filters () =
  let t =
    run_sql
      "select name, amount from people p join orders o on p.id = o.person where o.amount > 3"
  in
  check_cells "filtered join"
    (keys [ [ Value.Text "ana"; Value.Int 5 ]; [ Value.Text "cy"; Value.Int 7 ] ])
    t

let test_join_group_by () =
  let t =
    run_sql
      "select city, count(*) from people join orders on id = person group by city"
  in
  check_cells "per-city order counts"
    (keys [ [ Value.Text "berlin"; Value.Int 3 ] ])
    t

let test_cross_product () =
  Alcotest.(check int) "4 x 4" 16
    (Table.cardinality (run_sql "select * from people, orders"))

let test_semantic_errors () =
  List.iter
    (fun q ->
      Alcotest.(check bool) ("rejects: " ^ q) true
        (try
           ignore (run_sql q);
           false
         with Invalid_argument _ -> true))
    [
      "select nope from people";
      "select name from people group by city";
      "select sum(name) from people";
      "select *, name from people";
      "select p.id from people p, orders p";
    ]

let test_ambiguous_column () =
  (* Both tables given the same column name via aliasing is fine, but a
     truly shared name must be qualified. *)
  let dup =
    Table.create (Schema.make [ Schema.col "id" Value.TInt ]) [ [| Value.Int 1 |] ]
  in
  let resolve = function "a" -> dup | "b" -> dup | t -> failwith t in
  Alcotest.(check bool) "ambiguous rejected" true
    (try
       ignore (Sql.execute resolve (Sql.parse "select id from a, b"));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "qualified ok" 1
    (Table.cardinality (Sql.execute resolve (Sql.parse "select a.id from a, b where a.id = b.id")))

(* ------------------------------------------------------------------ *)
(* Private execution                                                   *)
(* ------------------------------------------------------------------ *)

(* The receiver-side table should have unique keys for the set-semantics
   shapes; [people] has unique ids. *)
let run_private sql =
  match
    Psi.Sql_private.run cfg ~sql ~sender:("orders", orders) ~receiver:("people", people) ()
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "unexpected rejection: %s" e

let column_names t = List.map (fun c -> c.Schema.name) (Schema.columns (Table.schema t))

(* Same answer as the plaintext evaluator: the same column names (so a
   CSV header matches) and the same cells. *)
let check_against_oracle name sql =
  let private_t = (run_private sql).Psi.Sql_private.table in
  let local_t = run_sql sql in
  Alcotest.(check (list string)) (name ^ ": column names") (column_names local_t)
    (column_names private_t);
  Alcotest.(check (list (list string))) name (cells local_t) (cells private_t)

let test_private_intersection () =
  (* Set semantics: the intersection protocol returns each joining value
     once, unlike the SQL multiset join (ana has two orders). *)
  let o = run_private "select id from people, orders where id = person" in
  check_cells "matching ids, distinct"
    (keys [ [ Value.Int 1 ]; [ Value.Int 3 ] ])
    o.Psi.Sql_private.table

let test_private_count () =
  check_against_oracle "count(*) = equijoin size"
    "select count(*) from people, orders where id = person";
  check_against_oracle "count(distinct) = intersection size"
    "select count(distinct id) from people, orders where id = person"

let test_private_sum () =
  check_against_oracle "sum over join"
    "select sum(amount) from people, orders where id = person";
  check_against_oracle "sum over a qualified column"
    "select sum(orders.amount) from people, orders where people.id = orders.person"

let test_private_equijoin_payload () =
  check_against_oracle "payload columns"
    "select item, amount from people, orders where id = person";
  check_against_oracle "payload with join key"
    "select id, item, amount from people, orders where id = person";
  check_against_oracle "qualified payload and join key"
    "select people.id, orders.item from people, orders where people.id = orders.person"

let test_private_group_by () =
  check_against_oracle "contingency table"
    "select city, item, count(*) from people, orders where id = person group by city, item";
  check_against_oracle "qualified contingency table"
    "select people.city, orders.item, count(*) from people, orders where people.id = \
     orders.person group by people.city, orders.item"

let test_private_with_local_filters () =
  check_against_oracle "sender-side filter"
    "select count(*) from people, orders where id = person and amount > 3";
  check_against_oracle "receiver-side filter"
    "select count(*) from people, orders where id = person and city = 'berlin'";
  check_against_oracle "intersection size, sender-side filter"
    "select count(distinct person) from people, orders where id = person and amount > 3";
  check_against_oracle "intersection size, receiver-side filter"
    "select count(distinct id) from people, orders where id = person and city = 'berlin'";
  check_against_oracle "filters on both sides"
    "select sum(amount) from people, orders where id = person and city = 'berlin' and amount < 6"

(* Composite (multi-column) join keys. *)
let ship_s =
  Csv.parse_string
    "sku:text,site:text,qty:int\n\
     A,eu,5\n\
     A,us,9\n\
     B,eu,2\n\
     C,us,4\n"

let ship_r =
  Csv.parse_string
    "sku:text,site:text,want:int\n\
     A,eu,1\n\
     A,apac,1\n\
     B,eu,1\n\
     C,eu,1\n"

let run_private_ship sql =
  match Psi.Sql_private.run cfg ~sql ~sender:("stock", ship_s) ~receiver:("orders", ship_r) () with
  | Ok o -> o
  | Error e -> Alcotest.failf "unexpected rejection: %s" e

let test_private_composite_intersection () =
  let o =
    run_private_ship
      "select orders.sku, orders.site from orders, stock \
       where orders.sku = stock.sku and orders.site = stock.site"
  in
  (* Pairs in both: (A,eu) and (B,eu). *)
  check_cells "composite intersection"
    (keys
       [ [ Value.Text "A"; Value.Text "eu" ]; [ Value.Text "B"; Value.Text "eu" ] ])
    o.Psi.Sql_private.table

let test_private_composite_count_and_sum () =
  let o =
    run_private_ship
      "select count(*) from orders, stock \
       where orders.sku = stock.sku and orders.site = stock.site"
  in
  check_cells "composite count" (keys [ [ Value.Int 2 ] ]) o.Psi.Sql_private.table;
  let o =
    run_private_ship
      "select sum(qty) from orders, stock \
       where orders.sku = stock.sku and orders.site = stock.site"
  in
  (* qty of (A,eu)=5 and (B,eu)=2. *)
  check_cells "composite sum" (keys [ [ Value.Int 7 ] ]) o.Psi.Sql_private.table

let test_private_composite_join_payload () =
  let o =
    run_private_ship
      "select orders.sku, orders.site, qty from orders, stock \
       where orders.sku = stock.sku and orders.site = stock.site"
  in
  check_cells "composite join with payload"
    (keys
       [
         [ Value.Text "A"; Value.Text "eu"; Value.Int 5 ];
         [ Value.Text "B"; Value.Text "eu"; Value.Int 2 ];
       ])
    o.Psi.Sql_private.table

let test_private_join_on_syntax_and_aliases () =
  (* JOIN ... ON with table aliases routes through the same analysis. *)
  let o =
    run_private
      "select count(*) from people p join orders o on p.id = o.person where o.amount >= 3"
  in
  check_cells "aliased join-on" (keys [ [ Value.Int 3 ] ]) o.Psi.Sql_private.table

let test_private_explain () =
  let explain sql =
    match
      Psi.Sql_private.explain ~sql ~sender:("orders", orders) ~receiver:("people", people) ()
    with
    | Ok s -> s
    | Error e -> "ERROR: " ^ e
  in
  Alcotest.(check string) "intersection" "intersection (§3.3)"
    (explain "select p.id from people p, orders o where p.id = o.person");
  Alcotest.(check string) "intersection size" "intersection size (§5.1)"
    (explain "select count(distinct o.person) from people p, orders o where p.id = o.person");
  Alcotest.(check string) "size" "equijoin size (§5.2)"
    (explain "select count(*) from people p, orders o where p.id = o.person");
  Alcotest.(check string) "sum" "private equijoin SUM (§7 extension)"
    (explain "select sum(o.amount) from people p, orders o where p.id = o.person");
  Alcotest.(check string) "join" "equijoin (§4.3)"
    (explain "select o.item from people p, orders o where p.id = o.person");
  Alcotest.(check string) "group by" "private GROUP BY (Figure 2 generalized)"
    (explain
       "select p.city, o.item, count(*) from people p, orders o where p.id = o.person \
        group by p.city, o.item")

let test_private_rejections () =
  let run sql =
    Psi.Sql_private.run cfg ~sql ~sender:("orders", orders) ~receiver:("people", people) ()
  in
  List.iter
    (fun (sql, why) ->
      match run sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should have rejected (%s): %s" why sql)
    [
      ("select * from people", "no join");
      ("select name from people, orders where id = person", "receiver payload column");
      ("select nonsense syntax", "parse error");
      ("select count(*) from people, orders where id = person and name < item",
        "cross-table inequality");
      ("select id from people, orders where id = person and name = item",
        "intersection must select the full composite key");
      ("select city, item, count(*) from people, orders \
        where id = person and name = item group by city, item",
        "composite key with group by");
      ("select sum(age) from people, orders where id = person", "sum over receiver column");
      ("select name, count(*) from people, orders where id = person group by name",
        "one-sided group by");
      ("select count(distinct id) from people, orders where id = person and name = item",
        "count(distinct) with a composite join key");
      ("select count(distinct city) from people, orders where id = person",
        "count(distinct) over a non-join column");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sql"
    [
      ( "parser",
        [
          Alcotest.test_case "roundtrip via printer" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          fuzz_parser_never_crashes;
          fuzz_parser_random_bytes;
        ] );
      ( "local-eval",
        [
          Alcotest.test_case "select *" `Quick test_select_star;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "where operators" `Quick test_where_operators;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "group by count" `Quick test_group_by_count;
          Alcotest.test_case "group by sum" `Quick test_group_by_sum;
          Alcotest.test_case "whole-table aggregates" `Quick test_whole_table_aggregate;
          Alcotest.test_case "two-table join" `Quick test_two_table_join;
          Alcotest.test_case "join with filters" `Quick test_join_with_filters;
          Alcotest.test_case "join + group by" `Quick test_join_group_by;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "ambiguity" `Quick test_ambiguous_column;
        ] );
      ( "private-execution",
        [
          Alcotest.test_case "intersection" `Quick test_private_intersection;
          Alcotest.test_case "count" `Quick test_private_count;
          Alcotest.test_case "sum" `Quick test_private_sum;
          Alcotest.test_case "equijoin payload" `Quick test_private_equijoin_payload;
          Alcotest.test_case "group by" `Quick test_private_group_by;
          Alcotest.test_case "local filters" `Quick test_private_with_local_filters;
          Alcotest.test_case "composite-key intersection" `Quick test_private_composite_intersection;
          Alcotest.test_case "composite-key count/sum" `Quick test_private_composite_count_and_sum;
          Alcotest.test_case "composite-key join payload" `Quick test_private_composite_join_payload;
          Alcotest.test_case "JOIN ON with aliases" `Quick test_private_join_on_syntax_and_aliases;
          Alcotest.test_case "explain" `Quick test_private_explain;
          Alcotest.test_case "rejections" `Quick test_private_rejections;
        ] );
    ]
