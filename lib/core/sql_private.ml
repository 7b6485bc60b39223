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
  let owned schema side q =
    if Schema.mem schema c then side else unsupported "no column %s in %s" c q
  in
  match q with
  | Some q when q = a.r_alias -> owned r_schema R_side q
  | Some q when q = a.s_alias -> owned s_schema S_side q
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

(* One framing for a tuple of values (a composite join key, or an
   equijoin's ext(v) payload): the Buf-framed Value.keys, one per
   column of [cols]. *)
let frame vs =
  let w = Buf.writer () in
  List.iter (fun v -> Buf.write_bytes w (Value.key v)) vs;
  Buf.contents w

let unframe cols s =
  let r = Buf.reader s in
  let vs = List.map (fun _ -> Value.of_key (Buf.read_bytes r)) cols in
  Buf.expect_end r;
  vs

(* Single columns use Value.key directly (typed and invertible); tuples
   are framed. Rows with NULL in any join column never join (SQL
   semantics). *)
let key_of_row t cols row =
  let vs = List.map (fun c -> Table.get t row c) cols in
  if List.exists (fun v -> v = Value.Null) vs then None
  else match vs with [ v ] -> Some (Value.key v) | vs -> Some (frame vs)

let decode_key cols s = match cols with [ _ ] -> [ Value.of_key s ] | cols -> unframe cols s

let values_of t cols =
  Table.rows t |> List.filter_map (key_of_row t cols) |> List.sort_uniq String.compare

let multiset_of t cols = Table.rows t |> List.filter_map (key_of_row t cols)

(* ------------------------------------------------------------------ *)
(* Shape recognition                                                   *)
(* ------------------------------------------------------------------ *)

type join_field = Key of int (* index into the join tuple *) | Pay of string (* S column *)

type shape =
  | Sh_intersect of { out_names : string list; idxs : int list }
  | Sh_intersect_size of string
  | Sh_join_size of string
  | Sh_sum of { s_col : string; out : string }
  | Sh_join of { fields : join_field list; out_names : string list }
  | Sh_group_by of { r_class : string; s_class : string; names : string * string * string }

let index_in l x =
  let rec go i = function
    | [] -> None
    | h :: _ when h = x -> Some i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 l

(* Answer columns are named by [Sql.item_name], as the plaintext
   evaluator names them. Every item named here has passed [side] or its
   own pattern, so it is no literal and no [*], and the index (which only
   a literal's name shows) is 0. *)
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
  | [ (Sql.Count_star _ as itm) ], [] -> Sh_join_size (Sql.item_name itm 0)
  | [ (Sql.Count_distinct (e, _) as itm) ], [] -> (
      (* |V_R ∩ V_S|: the distinct values of the one join column. *)
      match (a.r_join_cols, join_index (side e)) with
      | [ _ ], Some 0 -> Sh_intersect_size (Sql.item_name itm 0)
      | [ _ ], _ -> unsupported "COUNT(DISTINCT) must name the join column"
      | _ -> unsupported "COUNT(DISTINCT) needs a single-column join key")
  | [ (Sql.Sum (e, _) as itm) ], [] -> (
      match side e with
      | S_side, c -> (
          match Schema.column_type s_schema c with
          | Value.TInt -> Sh_sum { s_col = c; out = Sql.item_name itm 0 }
          | Value.TBool | Value.TFloat | Value.TText ->
              unsupported "private SUM supports integer columns")
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
                | Some i -> (Key i, Sql.item_name itm 0)
                | None -> (
                    match s with
                    | S_side, c -> (Pay c, Sql.item_name itm 0)
                    | R_side, c ->
                        unsupported "receiver column %s not available in an equijoin" c))
            | Sql.Star -> unsupported "* unsupported across private tables"
            | Sql.Count_star _ | Sql.Count_distinct _ | Sql.Sum _ ->
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
        let name itm = Sql.item_name itm 0 in
        let names =
          match items with
          | [ (Sql.Column (e1, _) as i1); (Sql.Column (e2, _) as i2); (Sql.Count_star _ as i3) ]
            -> (
              match (g_side e1, g_side e2) with
              | (R_side, rc), (S_side, sc) when rc = r_class && sc = s_class ->
                  (name i1, name i2, name i3)
              | (S_side, sc), (R_side, rc) when rc = r_class && sc = s_class ->
                  (name i2, name i1, name i3)
              | _ -> unsupported "SELECT must list the GROUP BY columns and COUNT( * )")
          | _ -> unsupported "SELECT must list the GROUP BY columns and COUNT( * )"
        in
        Sh_group_by { r_class; s_class; names }
      end)
  | _, _ -> unsupported "unsupported GROUP BY shape"

let shape_name = function
  | Sh_intersect _ -> "intersection (§3.3)"
  | Sh_intersect_size _ -> "intersection size (§5.1)"
  | Sh_join_size _ -> "equijoin size (§5.2)"
  | Sh_sum _ -> "private equijoin SUM (§7 extension)"
  | Sh_join _ -> "equijoin (§4.3)"
  | Sh_group_by _ -> "private GROUP BY (Figure 2 generalized)"

(* ------------------------------------------------------------------ *)
(* The §2.3 audit gate                                                 *)
(* ------------------------------------------------------------------ *)

let operation_name = function
  | Sh_intersect _ -> "intersect"
  | Sh_intersect_size _ -> "intersect_size"
  | Sh_join _ -> "equijoin"
  | Sh_join_size _ -> "equijoin_size"
  | Sh_sum _ -> "sum"
  | Sh_group_by _ -> "group_by"

(* What the query fixes on the sender's side: S's join column and S's
   own filters (conjunct order aside), in one canonical string. The
   receiver writes these too, so a query that keeps an earlier R set but
   changes them is a differencing probe, not an exact repeat. *)
let sender_scope a =
  Marshal.to_string (a.s_join_cols, List.sort_uniq compare a.s_filters) [ Marshal.No_sharing ]

(* The sender checks the receiver's query against its policy, then the
   size of the answer it would release (the result-size rules), before
   any session starts. [t_s] and [t_r] are already filtered. The input
   sets are compared as R's join keys, which only a single-column key
   keeps comparable across queries: a composite key's framed tuples
   share nothing with the single column's keys they extend. *)
let audit_gate audit ~peer a shape ~t_s ~t_r =
  if List.length a.r_join_cols > 1 then
    unsupported "an audited query needs a single-column join key";
  let v_r = values_of t_r a.r_join_cols in
  match
    Audit.check_query audit ~peer ~operation:(operation_name shape) ~scope:(sender_scope a)
      ~input_values:v_r
  with
  | Audit.Deny reason -> Error reason
  | Audit.Allow -> (
      let v_s = values_of t_s a.s_join_cols in
      let result_size =
        match shape with
        | Sh_join_size _ ->
            Leakage.join_size ~r_values:(multiset_of t_r a.r_join_cols)
              ~s_values:(multiset_of t_s a.s_join_cols)
        | Sh_intersect _ | Sh_intersect_size _ | Sh_join _ | Sh_sum _ | Sh_group_by _ ->
            Leakage.join_size ~r_values:v_r ~s_values:v_s
      in
      match Audit.check_result audit ~peer ~result_size ~own_set_size:(List.length v_s) with
      | Audit.Deny reason -> Error reason
      | Audit.Allow -> Ok ())

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One protocol run through the session executor: the receiver's
   result, the session's wire bytes and both parties' tallies. *)
let run_op cfg ~seed op =
  match Session.run cfg ~seed [ op ] () with
  | { Session.results = [ result ]; total_bytes; ops; _ } -> (result, total_bytes, ops)
  | _ -> failwith "sql_private: one operation, one result"

(* [t_s] and [t_r] are already filtered by their owners. *)
let execute cfg ~seed a ~t_s ~t_r shape =
  let r_col_ty c = Schema.column_type (Table.schema t_r) c in
  let s_col_ty c = Schema.column_type (Table.schema t_s) c in
  let size_table op out =
    match run_op cfg ~seed op with
    | Session.Size n, total_bytes, ops ->
        {
          table = Table.create (Schema.make [ Schema.col out Value.TInt ]) [ [| Value.Int n |] ];
          total_bytes;
          ops;
        }
    | _ -> failwith "sql_private: a size protocol returned another shape"
  in
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
  | Sh_intersect_size out ->
      size_table
        (Session.Intersect_size
           { s_values = values_of t_s a.s_join_cols; r_values = values_of t_r a.r_join_cols })
        out
  | Sh_join_size out ->
      size_table
        (Session.Equijoin_size
           { s_values = multiset_of t_s a.s_join_cols; r_values = multiset_of t_r a.r_join_cols })
        out
  | Sh_sum { s_col; out } ->
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
      let payload_cols = List.filter_map (function Pay c -> Some c | Key _ -> None) fields in
      let records =
        List.filter_map
          (fun row ->
            Option.map
              (fun k -> (k, frame (List.map (Table.get t_s row) payload_cols)))
              (key_of_row t_s a.s_join_cols row))
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
            (* Payload values fill the Pay fields in select order. *)
            let rec fill fields pay =
              match (fields, pay) with
              | Key i :: fs, _ -> List.nth tuple i :: fill fs pay
              | Pay _ :: fs, p :: ps -> p :: fill fs ps
              | Pay _ :: _, [] | [], _ :: _ ->
                  failwith "sql_private: payload does not fit its columns"
              | [], [] -> []
            in
            List.map
              (fun payload -> Array.of_list (fill fields (unframe payload_cols payload)))
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

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Parse, analyze and recognize: the one plan path of [run] and
   [explain]. *)
let plan ~sql ~sender:(s_name, t_s) ~receiver:(r_name, t_r) =
  let a = analyze (Sql.parse sql) ~s_name ~t_s ~r_name ~t_r in
  (a, recognize a ~r_schema:(Table.schema t_r) ~s_schema:(Table.schema t_s))

let guarded f =
  match f () with
  | r -> r
  | exception Sql.Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Unsupported msg -> Error ("unsupported query: " ^ msg)
  | exception Invalid_argument msg -> Error msg

let run cfg ?(seed = "sql-private") ?audit ?(peer = "receiver") ~sql ~sender ~receiver () =
  guarded (fun () ->
      let a, shape = plan ~sql ~sender ~receiver in
      let t_s = apply_filters (snd sender) a.s_filters in
      let t_r = apply_filters (snd receiver) a.r_filters in
      let gate =
        match audit with None -> Ok () | Some audit -> audit_gate audit ~peer a shape ~t_s ~t_r
      in
      Result.map (fun () -> execute cfg ~seed a ~t_s ~t_r shape) gate)

let explain ~sql ~sender ~receiver () =
  guarded (fun () -> Ok (shape_name (snd (plan ~sql ~sender ~receiver))))
