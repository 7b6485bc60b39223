(** A small SQL subset: parser and local (plaintext) evaluator.

    The paper's problem statement (§2.2) is "given a database query Q
    spanning the tables in D_R and D_S, compute the answer to Q" — this
    module supplies the query language. [Psi.Sql_private] recognizes
    the query shapes the protocols support and runs them privately;
    this evaluator is the local engine and the test oracle.

    Supported grammar (case-insensitive keywords):

    {v
    query   := SELECT items FROM tables [WHERE pred] [GROUP BY exprs]
    items   := item (',' item)*
    item    := '*' | COUNT '(' '*' ')' [AS id] | SUM '(' expr ')' [AS id]
             | COUNT '(' DISTINCT expr ')' [AS id]
             | expr [AS id]
    tables  := tref [',' tref] | tref JOIN tref ON pred
    tref    := ident [[AS] ident]
    pred    := cmp (AND cmp)*
    cmp     := expr ('=' | '<>' | '!=' | '<' | '<=' | '>' | '>=') expr
    expr    := ident ['.' ident] | literal
    literal := integer | float | 'string' | TRUE | FALSE | NULL
    v}

    Restrictions: at most two tables; no OR, no subqueries, no ORDER BY;
    aggregates cannot be mixed with bare columns unless those columns
    are grouped; [DISTINCT] is allowed only inside [COUNT], which then
    counts the distinct non-NULL values of its expression. *)

(** {1 AST} *)

type expr = Col of string option * string  (** [qualifier.column] *) | Lit of Value.t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type predicate = Cmp of cmp * expr * expr | And of predicate * predicate

type item =
  | Star
  | Column of expr * string option
  | Count_star of string option
  | Count_distinct of expr * string option  (** [COUNT(DISTINCT e)] *)
  | Sum of expr * string option

type table_ref = { table : string; alias : string }

type query = {
  select : item list;
  from : table_ref list;
  where : predicate option;
  group_by : expr list;
}

exception Parse_error of string

(** [parse s] parses one query.
    @raise Parse_error with a position-bearing message. *)
val parse : string -> query

(** [pp_query] prints a normalized rendering (debugging). *)
val pp_query : Format.formatter -> query -> unit

(** {1 Local evaluation} *)

(** [item_name item index] is the name {!execute} gives the answer
    column of the [index]-th select item: its alias, else the column as
    written ([c] or [q.c]), ["count"] for either count, ["sum_"]
    followed by the summed column with dots as underscores, and
    ["lit_<index>"] for a literal.
    @raise Invalid_argument on [Star]. *)
val item_name : item -> int -> string

(** [execute resolve q] evaluates [q] against the tables returned by
    [resolve name].
    @raise Invalid_argument for semantic errors (unknown table/column,
    ambiguous reference, unsupported shape)
    @raise Not_found if [resolve] does. *)
val execute : (string -> Table.t) -> query -> Table.t
