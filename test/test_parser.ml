(* Lowering tests: one fixture per construct the analyses walk, each
   parsed by the compiler's own parser and lowered by [Lower] without
   error; then the shapes the analyses rely on — real operator
   precedence, labeled parameters, module bodies written in expression
   position turned into items [Resolve] sees — including the six such
   bodies in lib/. *)

module Ast = Analysis.Ast
module Lower = Analysis.Lower
module Resolve = Analysis.Resolve
module Tokens = Analysis.Tokens

let parse src =
  try Lower.structure_of_string src
  with Tokens.Error { line; col; message } ->
    Alcotest.failf "parse error at %d:%d: %s\nin:\n%s" line col message src

let reparses src = ignore (parse src)

(* ------------------------------------------------------------------ *)
(* Construct fixtures                                                  *)
(* ------------------------------------------------------------------ *)

let test_let_bindings () =
  reparses "let x = 1";
  reparses "let x = 1\nlet y = x";
  reparses "let rec f n = if n = 0 then 1 else n * f (n - 1)";
  reparses "let rec even n = n = 0 || odd (n - 1)\nand odd n = n > 0 && even (n - 1)";
  reparses "let f x =\n  let y = x + 1 in\n  let z = y * 2 in\n  z";
  reparses "let (a, b) = (1, 2)";
  reparses "let { x; y = z } = p";
  reparses "let _ = ignore 3"

let test_functions () =
  reparses "let f = fun x -> x";
  reparses "let f = fun x y -> x + y";
  reparses "let f ~label x = label + x";
  reparses "let f ?(opt = 3) x = opt + x";
  reparses "let f ?opt x = (opt, x)";
  reparses "let g = function 0 -> true | _ -> false";
  reparses "let apply f ~x = f ~x";
  reparses "let h = f ~x:1 ?y:None 2"

let test_match_and_try () =
  reparses "let f x = match x with 0 -> a | 1 -> b | _ -> c";
  reparses "let f x = match x with n when n > 0 -> n | n -> -n";
  reparses "let f x = match x with Some y -> y | None -> 0";
  reparses "let f x = match x with A | B -> 1 | C as c -> g c";
  reparses "let f x = match x with [] -> 0 | h :: t -> h + len t";
  reparses "let f x = match x with (a, b) -> a + b";
  reparses "let f x = match x with { a; b = c; _ } -> a + c";
  reparses "let f x = match x with exception Not_found -> 0 | v -> v";
  reparses "let f x = match x with lazy v -> v";
  reparses "let f x = try g x with Failure m -> h m | Not_found -> 0";
  reparses "let f x = match x with 'a' .. 'z' -> true | _ -> false"

let test_data_constructs () =
  reparses "let t = (1, 2, 3)";
  reparses "let v = Some (x + 1)";
  reparses "let v = Pair (a, b)";
  reparses "let r = { a = 1; b = 2 }";
  reparses "let r2 = { r with b = 3 }";
  reparses "let x = r.a + p.M.f";
  reparses "let () = r.a <- 4";
  reparses "let xs = [ 1; 2; 3 ]";
  reparses "let ys = [| 1; 2 |]";
  reparses "let h = a.(i)";
  reparses "let c = s.[i]";
  reparses "let () = a.(i) <- 3";
  reparses "let z = lazy (f x)";
  reparses "let () = assert (x > 0)"

let test_control_flow () =
  reparses "let f x = if x then 1 else 2";
  reparses "let f x = if x then g ()";
  reparses "let f () = a (); b (); c ()";
  reparses "let f n =\n  for i = 0 to n do\n    g i\n  done";
  reparses "let f n =\n  for i = n downto 0 do\n    g i\n  done";
  reparses "let f () =\n  while running () do\n    step ()\n  done"

let test_modules () =
  reparses "let f x = let open List in map g x";
  reparses "let f x = List.(map g x)";
  reparses "let f () = let module M = Make (X) in 0";
  reparses "let m = (module M)";
  reparses "module A = struct\n  let x = 1\nend";
  reparses "module B = A";
  reparses "module C = Make (A)";
  reparses "open A\nlet y = x";
  reparses "include A";
  reparses "type t = int\nlet x = 3";
  reparses "exception E of string\nlet f () = raise (E \"boom\")";
  reparses "let c = Conn ((module struct\n  let send = send\nend : S), c)";
  reparses
    "let d xs =\n\
    \  let module VS = Set.Make (struct\n\
    \    type t = int\n\
    \    let compare = compare\n\
    \  end) in\n\
    \  VS.elements (VS.of_list xs)";
  reparses "module F (X : S) = struct\n  let y = X.x\nend";
  reparses "include struct\n  let z = 1\nend"

(* Shape checks: the AST really is what the analyses walk, not just a
   reprintable blob. *)
let test_shapes () =
  (match parse "let f ~a ?(b = 1) c = a + b + c" with
  | [ Ast.Ilet { bindings = [ { b_params; _ } ]; _ } ] ->
      let labels =
        List.map
          (fun (p : Ast.param) ->
            match p.label with
            | Ast.Nolabel -> "_"
            | Ast.Labelled l -> "~" ^ l
            | Ast.Optional l -> "?" ^ l)
          b_params
      in
      Alcotest.(check (list string)) "param labels" [ "~a"; "?b"; "_" ] labels
  | _ -> Alcotest.fail "unexpected structure for labeled params");
  (match parse "let f x = match x with 0 -> a | _ when g x -> b | _ -> c" with
  | [ Ast.Ilet { bindings = [ { b_params = [ _ ]; b_body; _ } ]; _ } ] -> (
      match b_body.Ast.desc with
      | Ast.Match (_, cases) ->
          Alcotest.(check int) "three cases" 3 (List.length cases);
          Alcotest.(check bool) "second case guarded" true
            (Option.is_some (List.nth cases 1).Ast.guard)
      | _ -> Alcotest.fail "body is not a match")
  | _ -> Alcotest.fail "unexpected structure for match");
  match parse "module M = struct\n  let inner = 1\nend" with
  | [ Ast.Imodule ("M", [ Ast.Ilet _ ], _) ] -> ()
  | _ -> Alcotest.fail "unexpected structure for module"

let test_positions () =
  match parse "let a = 1\nlet b =\n  f (x + 1)" with
  | [ Ast.Ilet { i_pos = p1; _ }; Ast.Ilet { bindings = [ { b_body; _ } ]; i_pos = p2; _ } ]
    ->
      Alcotest.(check int) "first item line" 1 p1.Ast.line;
      Alcotest.(check int) "second item line" 2 p2.Ast.line;
      Alcotest.(check int) "body expr line" 3 b_body.Ast.pos.Ast.line
  | _ -> Alcotest.fail "unexpected structure"

let test_errors () =
  let fails src =
    match Lower.structure_of_string src with
    | _ -> Alcotest.failf "expected a parse error for: %s" src
    | exception Tokens.Error _ -> ()
  in
  fails "let = 3";
  fails "let f x = match x with";
  fails "let f x = (x";
  fails "let r = { a = 1;"

(* ------------------------------------------------------------------ *)
(* Lowering shapes                                                     *)
(* ------------------------------------------------------------------ *)

let body_of src =
  match parse src with
  | [ Ast.Ilet { bindings = [ { b_body; _ } ]; _ } ] -> b_body
  | _ -> Alcotest.failf "expected one binding in: %s" src

let test_precedence () =
  let op_of (e : Ast.expr) =
    match e.desc with Ast.Apply ({ desc = Ast.Var [ op ]; _ }, _) -> op | _ -> "-"
  in
  (match (body_of "let x = a + b * c").desc with
  | Ast.Apply ({ desc = Ast.Var [ "+" ]; _ }, [ (_, a); (_, bc) ]) ->
      Alcotest.(check string) "left operand" "-" (op_of a);
      Alcotest.(check string) "* under +" "*" (op_of bc)
  | _ -> Alcotest.fail "a + b * c must lower as an application of +");
  match (body_of "let x = r := !r + 1").desc with
  | Ast.Apply ({ desc = Ast.Var [ ":=" ]; _ }, [ _; (_, sum) ]) ->
      Alcotest.(check string) "r := !r + 1 assigns the sum" "+" (op_of sum)
  | _ -> Alcotest.fail "r := !r + 1 must lower as an application of :="

let defs_of files =
  (Resolve.build (List.map (fun (path, src) -> (path, parse src)) files)).Resolve.def_order

let has_def defs ~prefix ~suffix =
  List.exists (fun d -> String.starts_with ~prefix d && String.ends_with ~suffix d) defs

let test_module_bodies () =
  let defs =
    defs_of
      [
        ( "lib/core/packed.ml",
          "let pack c = Conn ((module struct\n  let send_packed x = x\nend), c)\n\n\
           let sorted xs =\n\
          \  let module VS = Set.Make (struct\n\
          \    type t = int\n\
          \    let compare_local = compare\n\
          \  end) in\n\
          \  VS.elements (VS.of_list xs)" );
      ]
  in
  Alcotest.(check bool) "(module struct ... end) binding is a def" true
    (has_def defs ~prefix:"Packed.<struct@1:" ~suffix:".send_packed");
  Alcotest.(check bool) "let module ... = F (struct ... end) binding is a def" true
    (has_def defs ~prefix:"Packed.<struct@6:" ~suffix:".compare_local")

(* The module bodies in expression position in lib/: every one lowers
   to an item whose bindings [Resolve] defines. *)
let test_lib_module_bodies () =
  let read path = In_channel.with_open_bin ("../" ^ path) In_channel.input_all in
  let files =
    [
      "lib/wire/transport.ml"; "lib/wire/fault.ml"; "lib/minidb/relop.ml";
      "lib/minidb/table.ml";
    ]
  in
  let defs = defs_of (List.map (fun p -> (p, read p)) files) in
  (* [n] distinct bodies under [outer] define a binding named [suffix];
     the bodies are told apart by their <struct@LINE:COL> segment. *)
  let bodies ~outer ~suffix =
    List.filter_map
      (fun d ->
        let prefix = outer ^ ".<struct@" in
        if String.starts_with ~prefix d && String.ends_with ~suffix d then
          Some (String.sub d 0 (String.index_from d (String.length prefix) '>'))
        else None)
      defs
    |> List.sort_uniq String.compare |> List.length
  in
  List.iter
    (fun (outer, suffix, n) ->
      Alcotest.(check int) (Printf.sprintf "%s bodies defining %s" outer suffix) n
        (bodies ~outer ~suffix))
    [
      ("Transport.Memory", ".send", 1); ("Transport.Socket", ".send", 1); ("Fault", ".send", 1);
      ("Relop", ".compare", 2); ("Table", ".compare", 1);
    ]

(* ------------------------------------------------------------------ *)

let tc = Alcotest.test_case

let () =
  Alcotest.run "parser"
    [
      ( "constructs",
        [
          tc "let bindings" `Quick test_let_bindings;
          tc "functions" `Quick test_functions;
          tc "match & try" `Quick test_match_and_try;
          tc "data" `Quick test_data_constructs;
          tc "control flow" `Quick test_control_flow;
          tc "modules" `Quick test_modules;
          tc "shapes" `Quick test_shapes;
          tc "positions" `Quick test_positions;
          tc "errors" `Quick test_errors;
        ] );
      ( "lowering",
        [
          tc "precedence" `Quick test_precedence;
          tc "module bodies are defs" `Quick test_module_bodies;
          tc "lib module bodies are defs" `Quick test_lib_module_bodies;
        ] );
    ]
