module Sql = Minidb.Sql
module Value = Minidb.Value
module Table = Minidb.Table
module Schema = Minidb.Schema
module Relop = Minidb.Relop
module Buf = Wire.Buf

type outcome = { table : Table.t; total_bytes : int; ops : Protocol.ops }

(* ------------------------------------------------------------------ *)
(* Query analysis                                                      *)
(* ------------------------------------------------------------------ *)

type side = R_side | S_side

type analysis = {
  r_alias : string;
  s_alias : string;
  (* Aligned join columns; several pairs form a composite join key. *)
  r_join_cols : string list;
  s_join_cols : string list;
  r_filters : Sql.predicate list;
  s_filters : Sql.predicate list;
  query : Sql.query;
}

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Which side owns a column reference. *)
let side_of a ~r_schema ~s_schema (q, c) =
  match q with
  | Some q when q = a.r_alias -> R_side
  | Some q when q = a.s_alias -> S_side
  | Some q -> unsupported "unknown table alias %s" q
  | None -> (
      match (Schema.mem r_schema c, Schema.mem s_schema c) with
      | true, false -> R_side
      | false, true -> S_side
      | true, true -> unsupported "ambiguous column %s" c
      | false, false -> unsupported "unknown column %s" c)

let expr_side a ~r_schema ~s_schema = function
  | Sql.Lit _ -> None
  | Sql.Col (q, c) -> Some (side_of a ~r_schema ~s_schema (q, c))

let pred_side a ~r_schema ~s_schema = function
  | Sql.Cmp (_, x, y) -> (
      match (expr_side a ~r_schema ~s_schema x, expr_side a ~r_schema ~s_schema y) with
      | Some R_side, (Some R_side | None) | None, Some R_side -> Some R_side
      | Some S_side, (Some S_side | None) | None, Some S_side -> Some S_side
      | None, None -> None
      | Some R_side, Some S_side | Some S_side, Some R_side ->
          unsupported "cross-table predicate other than the join condition")
  | Sql.And _ -> unsupported "internal: nested And after conjunct flattening"

let rec conjuncts = function
  | Sql.Cmp _ as c -> [ c ]
  | Sql.And (x, y) -> conjuncts x @ conjuncts y

let analyze query ~s_name ~t_s ~r_name ~t_r =
  match query.Sql.from with
  | [ t1; t2 ] ->
      let pick name =
        if t1.Sql.table = name then Some t1
        else if t2.Sql.table = name then Some t2
        else None
      in
      let r_ref =
        match pick r_name with
        | Some t -> t
        | None -> unsupported "query must reference receiver table %s" r_name
      in
      let s_ref =
        match pick s_name with
        | Some t -> t
        | None -> unsupported "query must reference sender table %s" s_name
      in
      if r_ref == s_ref then unsupported "query must reference both tables"
      else begin
        let a0 =
          {
            r_alias = r_ref.Sql.alias;
            s_alias = s_ref.Sql.alias;
            r_join_cols = [];
            s_join_cols = [];
            r_filters = [];
            s_filters = [];
            query;
          }
        in
        let r_schema = Table.schema t_r and s_schema = Table.schema t_s in
        let atoms = match query.Sql.where with None -> [] | Some w -> conjuncts w in
        (* Cross-table equalities form the (possibly composite) join key. *)
        let joins, rest =
          List.partition
            (function
              | Sql.Cmp (Sql.Eq, Sql.Col (qa, ca), Sql.Col (qb, cb)) -> (
                  match
                    ( side_of a0 ~r_schema ~s_schema (qa, ca),
                      side_of a0 ~r_schema ~s_schema (qb, cb) )
                  with
                  | R_side, S_side | S_side, R_side -> true
                  | R_side, R_side | S_side, S_side -> false)
              | Sql.Cmp _ -> false
              | Sql.And _ -> unsupported "internal: nested And after conjunct flattening")
            atoms
        in
        let pairs =
          List.map
            (function
              | Sql.Cmp (Sql.Eq, Sql.Col (qa, ca), Sql.Col (_, cb)) -> (
                  match side_of a0 ~r_schema ~s_schema (qa, ca) with
                  | R_side -> (ca, cb)
                  | S_side -> (cb, ca))
              | Sql.Cmp _ | Sql.And _ -> unsupported "internal: join atom is not a cross-side column equality")
            joins
        in
        if pairs = [] then unsupported "no join condition between %s and %s" r_name s_name
        else begin
          let r_filters, s_filters =
            List.fold_left
              (fun (rf, sf) atom ->
                match pred_side a0 ~r_schema ~s_schema atom with
                | Some R_side -> (atom :: rf, sf)
                | Some S_side -> (rf, atom :: sf)
                | None -> unsupported "constant-only predicate unsupported")
              ([], []) rest
          in
          {
            a0 with
            r_join_cols = List.map fst pairs;
            s_join_cols = List.map snd pairs;
            r_filters;
            s_filters;
          }
        end
      end
  | [ _ ] | [] -> unsupported "query must join the two private tables"
  | _ -> unsupported "more than two tables"

(* Evaluate a single-table predicate (used for the local filters). *)
let eval_local t pred row =
  let rec expr = function
    | Sql.Lit v -> v
    | Sql.Col (_, c) -> Table.get t row c
  and go = function
    | Sql.And (a, b) -> go a && go b
    | Sql.Cmp (op, x, y) ->
        let a = expr x and b = expr y in
        if a = Value.Null || b = Value.Null then false
        else begin
          let c = Value.compare a b in
          match op with
          | Sql.Eq -> c = 0
          | Sql.Ne -> c <> 0
          | Sql.Lt -> c < 0
          | Sql.Le -> c <= 0
          | Sql.Gt -> c > 0
          | Sql.Ge -> c >= 0
        end
  in
  go pred

let apply_filters t filters =
  List.fold_left (fun t p -> Relop.select (fun t row -> eval_local t p row) t) t filters

(* ------------------------------------------------------------------ *)
(* Composite join keys                                                 *)
(* ------------------------------------------------------------------ *)

(* Single columns use Value.key directly (typed and invertible); tuples
   are Buf-framed lists of Value.keys. Rows with NULL in any join
   column never join (SQL semantics). *)
let key_of_row t cols row =
  let vs = List.map (fun c -> Table.get t row c) cols in
  if List.exists (fun v -> v = Value.Null) vs then None
  else
    match vs with
    | [ v ] -> Some (Value.key v)
    | vs ->
        let w = Buf.writer () in
        List.iter (fun v -> Buf.write_bytes w (Value.key v)) vs;
        Some (Buf.contents w)

let decode_key cols s =
  match cols with
  | [ _ ] -> [ Value.of_key s ]
  | cols ->
      let r = Buf.reader s in
      let vs = List.map (fun _ -> Value.of_key (Buf.read_bytes r)) cols in
      Buf.expect_end r;
      vs

let values_of t cols =
  Table.rows t |> List.filter_map (key_of_row t cols) |> List.sort_uniq String.compare

let multiset_of t cols = Table.rows t |> List.filter_map (key_of_row t cols)

(* ------------------------------------------------------------------ *)
(* Shape recognition                                                   *)
(* ------------------------------------------------------------------ *)

type join_field = Key of int (* index into the join tuple *) | Pay of string (* S column *)

type shape =
  | Sh_intersect of { out_names : string list; idxs : int list }
  | Sh_join_size of string
  | Sh_sum of { s_col : string; out : string }
  | Sh_join of { fields : join_field list; out_names : string list }
  | Sh_group_by of { r_class : string; s_class : string; names : string * string * string }

let item_out_name default = function
  | Sql.Column (_, Some a) | Sql.Count_star (Some a) | Sql.Sum (_, Some a) -> a
  | Sql.Column (Sql.Col (_, c), None) -> c
  | Sql.Column (Sql.Lit _, None) | Sql.Star -> default
  | Sql.Count_star None -> "count"
  | Sql.Sum (Sql.Col (_, c), None) -> "sum_" ^ c
  | Sql.Sum (Sql.Lit _, None) -> default

let index_in l x =
  let rec go i = function
    | [] -> None
    | h :: _ when h = x -> Some i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 l

let recognize a ~r_schema ~s_schema =
  let q = a.query in
  let side e =
    match e with
    | Sql.Col (qual, c) -> (side_of a ~r_schema ~s_schema (qual, c), c)
    | Sql.Lit _ -> unsupported "literal select items unsupported"
  in
  (* Which join-tuple position (if any) a (side, col) refers to. *)
  let join_index = function
    | R_side, c -> index_in a.r_join_cols c
    | S_side, c -> index_in a.s_join_cols c
  in
  match (q.Sql.select, q.Sql.group_by) with
  | [ Sql.Count_star _ ], [] -> Sh_join_size (item_out_name "count" (List.hd q.Sql.select))
  | [ Sql.Sum (e, _) ], [] -> (
      match side e with
      | S_side, c -> Sh_sum { s_col = c; out = item_out_name "sum" (List.hd q.Sql.select) }
      | R_side, _ -> unsupported "SUM must range over the sender's column")
  | items, [] -> (
      (* Columns: join-tuple positions and/or sender payload columns. *)
      let fields =
        List.map
          (fun itm ->
            match itm with
            | Sql.Column (e, _) -> (
                let s = side e in
                match join_index s with
                | Some i -> (Key i, item_out_name (snd s) itm)
                | None -> (
                    match s with
                    | S_side, c -> (Pay c, item_out_name c itm)
                    | R_side, c ->
                        unsupported "receiver column %s not available in an equijoin" c))
            | Sql.Star -> unsupported "* unsupported across private tables"
            | Sql.Count_star _ | Sql.Sum _ ->
                unsupported "aggregates cannot mix with columns without GROUP BY")
          items
      in
      let out_names = List.map snd fields in
      let fields = List.map fst fields in
      let n_join = List.length a.r_join_cols in
      let all_key = List.for_all (function Key _ -> true | Pay _ -> false) fields in
      if all_key then begin
        (* Pure intersection: the select must cover the whole join tuple
           (else values would be revealed at finer granularity than the
           protocol computes). *)
        let idxs = List.map (function Key i -> i | Pay _ -> unsupported "internal: payload field in an all-key select") fields in
        if List.equal Int.equal (List.sort_uniq Int.compare idxs) (List.init n_join (fun i -> i))
        then
          Sh_intersect { out_names; idxs }
        else unsupported "intersection must select the full join key"
      end
      else Sh_join { fields; out_names })
  | items, [ g1; g2 ] -> (
      if List.length a.r_join_cols > 1 then
        unsupported "GROUP BY with a composite join key is not supported"
      else begin
        let g_side e = side e in
        let s1, c1 = g_side g1 and s2, c2 = g_side g2 in
        let r_class, s_class =
          match (s1, s2) with
          | R_side, S_side -> (c1, c2)
          | S_side, R_side -> (c2, c1)
          | _ -> unsupported "GROUP BY must name one column from each table"
        in
        let names =
          match items with
          | [ Sql.Column (e1, _); Sql.Column (e2, _); Sql.Count_star _ ] -> (
              match (g_side e1, g_side e2) with
              | (R_side, rc), (S_side, sc) when rc = r_class && sc = s_class ->
                  ( item_out_name rc (List.nth items 0),
                    item_out_name sc (List.nth items 1),
                    item_out_name "count" (List.nth items 2) )
              | (S_side, sc), (R_side, rc) when rc = r_class && sc = s_class ->
                  ( item_out_name rc (List.nth items 1),
                    item_out_name sc (List.nth items 0),
                    item_out_name "count" (List.nth items 2) )
              | _ -> unsupported "SELECT must list the GROUP BY columns and COUNT( * )")
          | _ -> unsupported "SELECT must list the GROUP BY columns and COUNT( * )"
        in
        match names with
        | rn, sn, cn -> Sh_group_by { r_class; s_class; names = (rn, sn, cn) }
      end)
  | _, _ -> unsupported "unsupported GROUP BY shape"

let shape_name = function
  | Sh_intersect _ -> "intersection (§3.3)"
  | Sh_join_size _ -> "equijoin size (§5.2)"
  | Sh_sum _ -> "private equijoin SUM (§7 extension)"
  | Sh_join _ -> "equijoin (§4.3)"
  | Sh_group_by _ -> "private GROUP BY (Figure 2 generalized)"

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One protocol run through the session executor: the receiver's
   result, the session's wire bytes and both parties' tallies. *)
let run_op cfg ~seed op =
  match Session.run cfg ~seed [ op ] () with
  | { Session.results = [ result ]; total_bytes; ops; _ } -> (result, total_bytes, ops)
  | _ -> failwith "sql_private: one operation, one result"

let execute cfg ~seed a ~t_s ~t_r shape =
  let t_r = apply_filters t_r a.r_filters in
  let t_s = apply_filters t_s a.s_filters in
  let r_col_ty c = Schema.column_type (Table.schema t_r) c in
  let s_col_ty c = Schema.column_type (Table.schema t_s) c in
  match shape with
  | Sh_intersect { out_names; idxs } ->
      let inter, total_bytes, ops =
        match
          run_op cfg ~seed
            (Session.Intersect
               { s_values = values_of t_s a.s_join_cols; r_values = values_of t_r a.r_join_cols })
        with
        | Session.Values vs, bytes, ops -> (vs, bytes, ops)
        | _ -> failwith "sql_private: intersection returned another shape"
      in
      let cols =
        List.map2
          (fun name i -> Schema.col ~nullable:true name (r_col_ty (List.nth a.r_join_cols i)))
          out_names idxs
      in
      let rows =
        List.map
          (fun key ->
            let tuple = decode_key a.r_join_cols key in
            Array.of_list (List.map (fun i -> List.nth tuple i) idxs))
          inter
      in
      { table = Table.create (Schema.make cols) rows; total_bytes; ops }
  | Sh_join_size out ->
      let size, total_bytes, ops =
        match
          run_op cfg ~seed
            (Session.Equijoin_size
               {
                 s_values = multiset_of t_s a.s_join_cols;
                 r_values = multiset_of t_r a.r_join_cols;
               })
        with
        | Session.Size n, bytes, ops -> (n, bytes, ops)
        | _ -> failwith "sql_private: equijoin size returned another shape"
      in
      {
        table = Table.create (Schema.make [ Schema.col out Value.TInt ]) [ [| Value.Int size |] ];
        total_bytes;
        ops;
      }
  | Sh_sum { s_col; out } ->
      (match s_col_ty s_col with
      | Value.TInt -> ()
      | Value.TBool | Value.TFloat | Value.TText ->
          unsupported "private SUM supports integer columns");
      let records =
        List.filter_map
          (fun row ->
            match (key_of_row t_s a.s_join_cols row, Table.get t_s row s_col) with
            | None, _ | _, Value.Null -> None
            | Some k, Value.Int x -> Some (k, x)
            | Some _, (Value.Bool _ | Value.Float _ | Value.Text _) -> None)
          (Table.rows t_s)
      in
      let o =
        Aggregate.run cfg ~seed ~sender_records:records
          ~receiver_values:(values_of t_r a.r_join_cols)
          ()
      in
      let r = o.Wire.Runner.receiver_result in
      {
        table =
          Table.create
            (Schema.make [ Schema.col ~nullable:true out Value.TInt ])
            [ [| Value.Int r.Aggregate.sum |] ];
        total_bytes = o.Wire.Runner.total_bytes;
        ops = Protocol.total r.Aggregate.ops o.Wire.Runner.sender_result.Aggregate.ops;
      }
  | Sh_join { fields; out_names } ->
      let payload_cols =
        List.filter_map (function Pay c -> Some c | Key _ -> None) fields
      in
      let encode_payload row =
        let w = Buf.writer () in
        List.iter
          (fun c -> Buf.write_bytes w (Value.key (Table.get t_s row c)))
          payload_cols;
        Buf.contents w
      in
      let decode_payload s =
        let rd = Buf.reader s in
        let vs = List.map (fun _ -> Value.of_key (Buf.read_bytes rd)) payload_cols in
        Buf.expect_end rd;
        vs
      in
      let records =
        List.filter_map
          (fun row ->
            Option.map (fun k -> (k, encode_payload row)) (key_of_row t_s a.s_join_cols row))
          (Table.rows t_s)
      in
      let matches, total_bytes, ops =
        match
          run_op cfg ~seed
            (Session.Equijoin { s_records = records; r_values = values_of t_r a.r_join_cols })
        with
        | Session.Matches ms, bytes, ops -> (ms, bytes, ops)
        | _ -> failwith "sql_private: equijoin returned another shape"
      in
      let cols =
        List.map2
          (fun f name ->
            match f with
            | Key i -> Schema.col ~nullable:true name (r_col_ty (List.nth a.r_join_cols i))
            | Pay c -> Schema.col ~nullable:true name (s_col_ty c))
          fields out_names
      in
      let rows =
        List.concat_map
          (fun (v, recs) ->
            let tuple = decode_key a.r_join_cols v in
            List.map
              (fun rec_payload ->
                let pay = decode_payload rec_payload in
                let pay_at =
                  let arr = Array.of_list pay in
                  let i = ref (-1) in
                  fun () ->
                    incr i;
                    arr.(!i)
                in
                Array.of_list
                  (List.map
                     (function Key i -> List.nth tuple i | Pay _ -> pay_at ())
                     fields))
              recs)
          matches
      in
      { table = Table.create (Schema.make cols) rows; total_bytes; ops }
  | Sh_group_by { r_class; s_class; names = rn, sn, cn } ->
      let r_key = List.hd a.r_join_cols and s_key = List.hd a.s_join_cols in
      let g = Group_by.run cfg ~seed ~t_r ~r_key ~r_class ~t_s ~s_key ~s_class () in
      {
        table =
          Table.create
            (Schema.make
               [
                 Schema.col ~nullable:true rn (r_col_ty r_class);
                 Schema.col ~nullable:true sn (s_col_ty s_class);
                 Schema.col cn Value.TInt;
               ])
            (* SQL GROUP BY yields only non-empty groups; the protocol
               computes every class pair, so drop the zero cells. *)
            (List.filter_map
               (fun ((rv, sv), n) ->
                 if n = 0 then None else Some [| rv; sv; Value.Int n |])
               g.Group_by.cells);
        total_bytes = g.Group_by.total_bytes;
        ops = g.Group_by.ops;
      }

let run cfg ?(seed = "sql-private") ~sql ~sender:(s_name, t_s) ~receiver:(r_name, t_r) () =
  match
    let query = Sql.parse sql in
    let a = analyze query ~s_name ~t_s ~r_name ~t_r in
    let shape = recognize a ~r_schema:(Table.schema t_r) ~s_schema:(Table.schema t_s) in
    execute cfg ~seed a ~t_s ~t_r shape
  with
  | outcome -> Ok outcome
  | exception Sql.Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Unsupported msg -> Error ("unsupported query: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let explain ?sender ?receiver ~sql ~sender_name ~receiver_name () =
  let empty = Table.empty (Schema.make []) in
  let t_s = Option.value ~default:empty sender in
  let t_r = Option.value ~default:empty receiver in
  match
    let query = Sql.parse sql in
    let a = analyze query ~s_name:sender_name ~t_s ~r_name:receiver_name ~t_r in
    recognize a ~r_schema:(Table.schema t_r) ~s_schema:(Table.schema t_s)
  with
  | shape -> Ok (shape_name shape)
  | exception Sql.Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Unsupported msg -> Error ("unsupported query: " ^ msg)
  | exception Invalid_argument msg -> Error msg
