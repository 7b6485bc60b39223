type expr = Col of string option * string | Lit of Value.t
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type predicate = Cmp of cmp * expr * expr | And of predicate * predicate

type item =
  | Star
  | Column of expr * string option
  | Count_star of string option
  | Count_distinct of expr * string option
  | Sum of expr * string option

type table_ref = { table : string; alias : string }

type query = {
  select : item list;
  from : table_ref list;
  where : predicate option;
  group_by : expr list;
}

exception Parse_error of string

let expr_equal a b =
  match (a, b) with
  | Col (qa, ca), Col (qb, cb) ->
      Option.equal String.equal qa qb && String.equal ca cb
  | Lit va, Lit vb -> Value.equal va vb
  | (Col _ | Lit _), _ -> false

let is_star = function Star -> true | Column _ | Count_star _ | Count_distinct _ | Sum _ -> false

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | TIdent of string
  | TInt of int
  | TFloat of float
  | TString of string
  | TComma
  | TDot
  | TLparen
  | TRparen
  | TStar
  | TEq
  | TNe
  | TLt
  | TLe
  | TGt
  | TGe
  | TEof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let lex s =
  let n = String.length s in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !i)) in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = ',' then (emit TComma; incr i)
    else if c = '.' then (emit TDot; incr i)
    else if c = '(' then (emit TLparen; incr i)
    else if c = ')' then (emit TRparen; incr i)
    else if c = '*' then (emit TStar; incr i)
    else if c = '=' then (emit TEq; incr i)
    else if c = ';' && !i = n - 1 then incr i
    else if c = '<' then
      if !i + 1 < n && s.[!i + 1] = '=' then (emit TLe; i := !i + 2)
      else if !i + 1 < n && s.[!i + 1] = '>' then (emit TNe; i := !i + 2)
      else (emit TLt; incr i)
    else if c = '>' then
      if !i + 1 < n && s.[!i + 1] = '=' then (emit TGe; i := !i + 2) else (emit TGt; incr i)
    else if c = '!' then
      if !i + 1 < n && s.[!i + 1] = '=' then (emit TNe; i := !i + 2)
      else fail "unexpected '!'"
    else if c = '\'' then begin
      (* String literal with '' escaping. *)
      let buf = Buffer.create 16 in
      incr i;
      let fin = ref false in
      while not !fin do
        if !i >= n then fail "unterminated string literal"
        else if s.[!i] = '\'' then
          if !i + 1 < n && s.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            fin := true;
            incr i
          end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      emit (TString (Buffer.contents buf))
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9')
    then begin
      let start = !i in
      if c = '-' then incr i;
      let is_float = ref false in
      while
        !i < n
        && ((s.[!i] >= '0' && s.[!i] <= '9')
           || (s.[!i] = '.' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9'))
      do
        if s.[!i] = '.' then is_float := true;
        incr i
      done;
      let text = String.sub s start (!i - start) in
      if !is_float then emit (TFloat (float_of_string text))
      else emit (TInt (int_of_string text))
    end
    else if is_ident_char c && not (c >= '0' && c <= '9') then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      emit (TIdent (String.sub s start (!i - start)))
    end
    else fail (Printf.sprintf "unexpected character %C" c)
  done;
  emit TEof;
  Array.of_list (List.rev !tokens)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type parser_state = { toks : token array; mutable pos : int }

let peek p = p.toks.(p.pos)
let advance p = p.pos <- p.pos + 1

let fail_tok p msg =
  raise (Parse_error (Printf.sprintf "%s (token %d)" msg p.pos))

let is_kw p kw =
  match peek p with TIdent s -> String.uppercase_ascii s = kw | _ -> false

let expect_kw p kw = if is_kw p kw then advance p else fail_tok p ("expected " ^ kw)

let expect p t msg = if peek p = t then advance p else fail_tok p ("expected " ^ msg)

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "AND"; "GROUP"; "BY"; "AS"; "JOIN"; "ON"; "COUNT"; "SUM";
    "DISTINCT"; "TRUE"; "FALSE"; "NULL" ]

let is_keyword s = List.exists (String.equal (String.uppercase_ascii s)) keywords

let parse_ident p =
  match peek p with
  | TIdent s when not (is_keyword s) ->
      advance p;
      s
  | _ -> fail_tok p "expected identifier"

let parse_expr p =
  match peek p with
  | TInt v ->
      advance p;
      Lit (Value.Int v)
  | TFloat v ->
      advance p;
      Lit (Value.Float v)
  | TString v ->
      advance p;
      Lit (Value.Text v)
  | TIdent s when String.uppercase_ascii s = "TRUE" ->
      advance p;
      Lit (Value.Bool true)
  | TIdent s when String.uppercase_ascii s = "FALSE" ->
      advance p;
      Lit (Value.Bool false)
  | TIdent s when String.uppercase_ascii s = "NULL" ->
      advance p;
      Lit Value.Null
  | TIdent _ ->
      let a = parse_ident p in
      if peek p = TDot then begin
        advance p;
        let b = parse_ident p in
        Col (Some a, b)
      end
      else Col (None, a)
  | _ -> fail_tok p "expected expression"

let parse_alias_opt p =
  if is_kw p "AS" then begin
    advance p;
    Some (parse_ident p)
  end
  else
    match peek p with
    | TIdent s when not (is_keyword s) ->
        advance p;
        Some s
    | _ -> None

let parse_item p =
  if peek p = TStar then begin
    advance p;
    Star
  end
  else if is_kw p "COUNT" then begin
    advance p;
    expect p TLparen "(";
    (* DISTINCT is a keyword, so it parses only here, inside COUNT. *)
    if is_kw p "DISTINCT" then begin
      advance p;
      let e = parse_expr p in
      expect p TRparen ")";
      Count_distinct (e, parse_alias_opt p)
    end
    else begin
      expect p TStar "*";
      expect p TRparen ")";
      Count_star (parse_alias_opt p)
    end
  end
  else if is_kw p "SUM" then begin
    advance p;
    expect p TLparen "(";
    let e = parse_expr p in
    expect p TRparen ")";
    Sum (e, parse_alias_opt p)
  end
  else begin
    let e = parse_expr p in
    Column (e, parse_alias_opt p)
  end

let parse_cmp p =
  let lhs = parse_expr p in
  let op =
    match peek p with
    | TEq -> Eq
    | TNe -> Ne
    | TLt -> Lt
    | TLe -> Le
    | TGt -> Gt
    | TGe -> Ge
    | _ -> fail_tok p "expected comparison operator"
  in
  advance p;
  let rhs = parse_expr p in
  Cmp (op, lhs, rhs)

let parse_predicate p =
  let rec go acc =
    if is_kw p "AND" then begin
      advance p;
      go (And (acc, parse_cmp p))
    end
    else acc
  in
  go (parse_cmp p)

let parse_table_ref p =
  let table = parse_ident p in
  let alias = match parse_alias_opt p with Some a -> a | None -> table in
  { table; alias }

let parse string =
  let p = { toks = lex string; pos = 0 } in
  expect_kw p "SELECT";
  let select = ref [ parse_item p ] in
  while peek p = TComma do
    advance p;
    select := parse_item p :: !select
  done;
  expect_kw p "FROM";
  let t1 = parse_table_ref p in
  let from, join_pred =
    if peek p = TComma then begin
      advance p;
      ([ t1; parse_table_ref p ], None)
    end
    else if is_kw p "JOIN" then begin
      advance p;
      let t2 = parse_table_ref p in
      expect_kw p "ON";
      ([ t1; t2 ], Some (parse_predicate p))
    end
    else ([ t1 ], None)
  in
  let where =
    if is_kw p "WHERE" then begin
      advance p;
      Some (parse_predicate p)
    end
    else None
  in
  let where =
    match (join_pred, where) with
    | None, w -> w
    | Some jp, None -> Some jp
    | Some jp, Some w -> Some (And (jp, w))
  in
  let group_by =
    if is_kw p "GROUP" then begin
      advance p;
      expect_kw p "BY";
      let es = ref [ parse_expr p ] in
      while peek p = TComma do
        advance p;
        es := parse_expr p :: !es
      done;
      List.rev !es
    end
    else []
  in
  if peek p <> TEof then fail_tok p "trailing tokens"
  else { select = List.rev !select; from; where; group_by }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let expr_to_string = function
  | Col (None, c) -> c
  | Col (Some q, c) -> q ^ "." ^ c
  | Lit Value.Null -> "NULL"
  | Lit (Value.Text t) -> "'" ^ t ^ "'"
  | Lit v -> Value.to_string v

let cmp_to_string = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pred_to_string = function
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (expr_to_string a) (cmp_to_string op) (expr_to_string b)
  | And (a, b) -> pred_to_string a ^ " AND " ^ pred_to_string b

let item_to_string = function
  | Star -> "*"
  | Column (e, None) -> expr_to_string e
  | Column (e, Some a) -> expr_to_string e ^ " AS " ^ a
  | Count_star a -> "COUNT(*)" ^ (match a with Some a -> " AS " ^ a | None -> "")
  | Count_distinct (e, a) ->
      "COUNT(DISTINCT " ^ expr_to_string e ^ ")"
      ^ (match a with Some a -> " AS " ^ a | None -> "")
  | Sum (e, a) ->
      "SUM(" ^ expr_to_string e ^ ")" ^ (match a with Some a -> " AS " ^ a | None -> "")

let pp_query fmt q =
  Format.fprintf fmt "SELECT %s FROM %s%s%s"
    (String.concat ", " (List.map item_to_string q.select))
    (String.concat ", "
       (List.map
          (fun t -> if t.alias = t.table then t.table else t.table ^ " " ^ t.alias)
          q.from))
    (match q.where with None -> "" | Some w -> " WHERE " ^ pred_to_string w)
    (match q.group_by with
    | [] -> ""
    | es -> " GROUP BY " ^ String.concat ", " (List.map expr_to_string es))

(* ------------------------------------------------------------------ *)
(* Local evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let rec conjuncts = function Cmp _ as c -> [ c ] | And (a, b) -> conjuncts a @ conjuncts b

(* Column resolution against the working relation. *)
type env = {
  relation : Table.t;
  lookup : string option -> string -> string; (* qualifier, col -> relation column *)
}

let owner_of from_aliases table_schemas q c =
  (* Which table (index) owns column [c], given optional qualifier [q]. *)
  match q with
  | Some q -> (
      match List.find_index (fun a -> a = q) from_aliases with
      | Some i ->
          if Schema.mem (List.nth table_schemas i) c then Some i
          else invalid_arg (Printf.sprintf "Sql: no column %s in table %s" c q)
      | None -> invalid_arg ("Sql: unknown table alias: " ^ q))
  | None -> (
      let owners =
        List.filteri (fun i _ -> Schema.mem (List.nth table_schemas i) c) from_aliases
      in
      match owners with
      | [ a ] -> List.find_index (fun x -> x = a) from_aliases
      | [] -> invalid_arg ("Sql: unknown column: " ^ c)
      | _ -> invalid_arg ("Sql: ambiguous column: " ^ c))

let eval_expr env row = function
  | Lit v -> v
  | Col (q, c) -> Table.get env.relation row (env.lookup q c)

let eval_cmp op a b =
  (* SQL-ish: any comparison involving NULL is false. *)
  if a = Value.Null || b = Value.Null then false
  else begin
    let c = Value.compare a b in
    match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
  end

let rec eval_pred env row = function
  | Cmp (op, a, b) -> eval_cmp op (eval_expr env row a) (eval_expr env row b)
  | And (a, b) -> eval_pred env row a && eval_pred env row b

let item_name i index =
  match i with
  | Star -> invalid_arg "Sql: * cannot be named"
  | Column (_, Some a) | Count_star (Some a) | Count_distinct (_, Some a) | Sum (_, Some a) -> a
  | Column (Col (None, c), None) -> c
  | Column (Col (Some q, c), None) -> q ^ "." ^ c
  | Column (Lit _, None) -> Printf.sprintf "lit_%d" index
  | Count_star None | Count_distinct (_, None) -> "count"
  | Sum (e, None) -> "sum_" ^ String.map (fun c -> if c = '.' then '_' else c) (expr_to_string e)

let expr_type env = function
  | Lit v -> (Option.value ~default:Value.TText (Value.type_of v), true)
  | Col (q, c) ->
      let name = env.lookup q c in
      ((List.nth (Schema.columns (Table.schema env.relation))
          (Schema.index_of (Table.schema env.relation) name))
         .Schema.ty,
        true)

let has_aggregate select =
  List.exists
    (function Count_star _ | Count_distinct _ | Sum _ -> true | Star | Column _ -> false)
    select

let execute resolve q =
  (* Build the working relation and the column lookup. *)
  let env =
    match q.from with
    | [ t ] ->
        let table = resolve t.table in
        let schemas = [ Table.schema table ] in
        {
          relation = table;
          lookup =
            (fun qual c ->
              ignore (owner_of [ t.alias ] schemas qual c);
              c);
        }
    | [ t1; t2 ] ->
        let tab1 = resolve t1.table and tab2 = resolve t2.table in
        if t1.alias = t2.alias then invalid_arg "Sql: duplicate table alias"
        else begin
          let aliases = [ t1.alias; t2.alias ] in
          let schemas = [ Table.schema tab1; Table.schema tab2 ] in
          (* Find an equality conjunct linking the two tables. *)
          let conj = match q.where with None -> [] | Some w -> conjuncts w in
          let join_on =
            List.find_map
              (function
                | Cmp (Eq, Col (qa, ca), Col (qb, cb)) -> (
                    match (owner_of aliases schemas qa ca, owner_of aliases schemas qb cb)
                    with
                    | Some 0, Some 1 -> Some (ca, cb)
                    | Some 1, Some 0 -> Some (cb, ca)
                    | _ -> None)
                | Cmp ((Eq | Ne | Lt | Le | Gt | Ge), _, _) -> None
                | And _ -> None (* conjuncts returns atoms only *))
              conj
          in
          let relation =
            match join_on with
            | Some on -> Relop.equijoin tab1 tab2 ~on
            | None -> Relop.cross tab1 tab2
          in
          {
            relation;
            lookup =
              (fun qual c ->
                match owner_of aliases schemas qual c with
                | Some 0 -> "l." ^ c
                | Some 1 -> "r." ^ c
                | Some _ | None -> invalid_arg "Sql: internal: column owner outside the two joined tables");
          }
        end
    | [] -> invalid_arg "Sql: empty FROM"
    | _ -> invalid_arg "Sql: at most two tables supported"
  in
  (* Filter. *)
  let filtered =
    match q.where with
    | None -> env.relation
    | Some w ->
        Relop.select (fun _ row -> eval_pred { env with relation = env.relation } row w) env.relation
  in
  let env = { env with relation = filtered } in
  if has_aggregate q.select || q.group_by <> [] then begin
    (* Every bare column must be one of the grouped expressions. *)
    List.iter
      (function
        | Column (e, _) when not (List.exists (expr_equal e) q.group_by) ->
            invalid_arg
              (Printf.sprintf "Sql: column %s must appear in GROUP BY" (expr_to_string e))
        | Column _ | Star | Count_star _ | Count_distinct _ | Sum _ -> ())
      q.select;
    if List.exists is_star q.select then invalid_arg "Sql: * not allowed with aggregates"
    else begin
      (* Group rows by the GROUP BY key. *)
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun row ->
          let key = List.map (fun e -> eval_expr env row e) q.group_by in
          let ks = String.concat "\x00" (List.map Value.key key) in
          match Hashtbl.find_opt groups ks with
          | Some (k, rows) -> Hashtbl.replace groups ks (k, row :: rows)
          | None ->
              Hashtbl.add groups ks (key, [ row ]);
              order := ks :: !order)
        (Table.rows env.relation);
      let group_list =
        (* Whole-table aggregate when there is no GROUP BY: one group,
           even over the empty relation. *)
        if q.group_by = [] then
          [ ([], Table.rows env.relation) ]
        else
          Hashtbl.fold (fun _ (k, rows) acc -> (k, List.rev rows) :: acc) groups []
          |> List.sort (fun (a, _) (b, _) -> List.compare Value.compare a b)
      in
      let out_schema =
        Schema.make
          (List.mapi
             (fun i itm ->
               match itm with
               | Star -> invalid_arg "Sql: internal: Star survived select-item expansion"
               | Column (e, _) ->
                   let ty, _ = expr_type env e in
                   Schema.col ~nullable:true (item_name itm i) ty
               | Count_star _ | Count_distinct _ -> Schema.col (item_name itm i) Value.TInt
               | Sum (e, _) ->
                   let ty, _ = expr_type env e in
                   let ty =
                     match ty with
                     | Value.TInt -> Value.TInt
                     | Value.TFloat -> Value.TFloat
                     | Value.TBool | Value.TText ->
                         invalid_arg "Sql: SUM over non-numeric column"
                   in
                   Schema.col ~nullable:true (item_name itm i) ty)
             q.select)
      in
      let rows =
        List.map
          (fun (key, rows) ->
            Array.of_list
              (List.map
                 (fun itm ->
                   match itm with
                   | Star -> invalid_arg "Sql: internal: Star survived select-item expansion"
                   | Column (e, _) ->
                       let idx =
                         match List.find_index (fun g -> g = e) q.group_by with
                         | Some i -> i
                         | None -> invalid_arg "Sql: internal: group-by key missing for selected column"
                       in
                       List.nth key idx
                   | Count_star _ -> Value.Int (List.length rows)
                   | Count_distinct (e, _) ->
                       (* SQL semantics: NULLs excluded, duplicates once. *)
                       let keys =
                         List.filter_map
                           (fun row ->
                             match eval_expr env row e with
                             | Value.Null -> None
                             | v -> Some (Value.key v))
                           rows
                       in
                       Value.Int (List.length (List.sort_uniq String.compare keys))
                   | Sum (e, _) -> (
                       let vals =
                         List.filter_map
                           (fun row ->
                             match eval_expr env row e with
                             | Value.Null -> None
                             | v -> Some v)
                           rows
                       in
                       match vals with
                       | [] -> Value.Null
                       | Value.Int _ :: _ ->
                           Value.Int
                             (List.fold_left
                                (fun acc v ->
                                  match v with
                                  | Value.Int n -> acc + n
                                  | _ -> invalid_arg "Sql: mixed types in SUM")
                                0 vals)
                       | Value.Float _ :: _ ->
                           Value.Float
                             (List.fold_left
                                (fun acc v ->
                                  match v with
                                  | Value.Float f -> acc +. f
                                  | _ -> invalid_arg "Sql: mixed types in SUM")
                                0. vals)
                       | (Value.Bool _ | Value.Text _ | Value.Null) :: _ ->
                           invalid_arg "Sql: SUM over non-numeric column"))
                 q.select))
          group_list
      in
      Table.create out_schema rows
    end
  end
  else begin
    (* Plain projection. *)
    match q.select with
    | [ Star ] -> env.relation
    | items when List.exists is_star items ->
        invalid_arg "Sql: * must be the only select item"
    | items ->
        let out_schema =
          Schema.make
            (List.mapi
               (fun i itm ->
                 match itm with
                 | Column (e, _) ->
                     let ty, _ = expr_type env e in
                     Schema.col ~nullable:true (item_name itm i) ty
                 | Star | Count_star _ | Count_distinct _ | Sum _ ->
                     invalid_arg "Sql: internal: non-column item in a plain projection")
               items)
        in
        Table.create out_schema
          (List.map
             (fun row ->
               Array.of_list
                 (List.map
                    (fun itm ->
                      match itm with
                      | Column (e, _) -> eval_expr env row e
                      | Star | Count_star _ | Count_distinct _ | Sum _ ->
                          invalid_arg "Sql: internal: non-column item in a plain projection")
                    items))
             (Table.rows env.relation))
  end
