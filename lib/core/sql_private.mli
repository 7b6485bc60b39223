(** Private execution of SQL queries spanning two private tables — the
    full §2.2 problem statement: "given a database query Q spanning the
    tables in D_R and D_S, compute the answer to Q and return it to R".
    This is the one relational entry point over {!Minidb.Table}s.

    [run] parses a query over the two named tables, recognizes which of
    the paper's protocols answers it, and executes that protocol; the
    answer comes back as an ordinary {!Minidb.Table}. Predicates local
    to one table are applied by that table's owner before the protocol
    (each party may filter its own rows freely); cross-table predicates
    must be equalities and together form the (possibly composite,
    multi-column) join key. Composite keys work for every shape except
    COUNT(DISTINCT …) and GROUP BY.

    Recognized shapes (R = receiver table, S = sender table):

    {v
    SELECT r.a FROM ... WHERE r.a = s.b             intersection (§3)
    SELECT COUNT(DISTINCT r.a) FROM ...
      WHERE r.a = s.b                               intersection size (§5.1)
    SELECT COUNT( * ) FROM ... WHERE r.a = s.b        equijoin size (§5.2)
    SELECT SUM(s.x) FROM ... WHERE r.a = s.b        private sum (§7 ext.)
    SELECT s.x, s.y FROM ... WHERE r.a = s.b        equijoin (§4)
    SELECT r.c, s.d, COUNT( * ) FROM ...
      WHERE r.a = s.b GROUP BY r.c, s.d             group-by (Fig. 2 gen.)
    v}

    The [COUNT(DISTINCT …)] column must be the join column, on either
    side, and the join key must be a single column.

    Semantics note: the receiver side contributes its {e set} of join
    values (the paper's [V_R]); rows of [R] beyond the first per value do
    not multiply intersection/equijoin results (COUNT and SUM shapes use
    multiset semantics via the equijoin-size and aggregation protocols
    respectively, with SUM counting each S-row once per distinct R
    match, i.e. R's keys deduplicated).

    {b Audit (§2.3).} With [?audit], the sender checks the query against
    its policy after planning and before any session starts; a denial
    returns [Error reason] and no protocol byte is sent. The policy's
    log records, for every shape:
    - the operation: [intersect], [intersect_size], [equijoin],
      [equijoin_size], [sum] or [group_by];
    - the input: R's join-key set after R's own filters;
    - the own set size: S's join-key set after S's filters;
    - the result size the answer would release: the plaintext join size
      for [COUNT( * )], and [|V_R ∩ V_S|] for every other shape;
    - the scope: S's join column and S's filters. The receiver writes
      those too, so a query that repeats an earlier R set with other S
      filters (or another S join column) is not an exact repeat, and the
      overlap rule denies it: two answers that differ by one S row
      cannot be subtracted.
    An audited query needs a single-column join key ([Error] otherwise):
    the overlap rule compares R's key sets, and a composite key's framed
    tuples share nothing with the single column's keys they extend. *)

type outcome = {
  table : Minidb.Table.t;  (** the answer, as a relation *)
  total_bytes : int;
  ops : Protocol.ops;
}

(** [run cfg ~sql ~sender:(s_name, t_s) ~receiver:(r_name, t_r) ()]
    parses and privately executes [sql]. Table names in the query must
    be exactly [s_name] and [r_name] (aliases allowed). [?peer] names
    the receiver in the audit log (default ["receiver"]). Returns
    [Error reason] for parse errors, unsupported shapes, unknown columns
    and audit denials. *)
val run :
  Protocol.config ->
  ?seed:string ->
  ?audit:Audit.t ->
  ?peer:string ->
  sql:string ->
  sender:string * Minidb.Table.t ->
  receiver:string * Minidb.Table.t ->
  unit ->
  (outcome, string) result

(** [explain ~sql ~sender ~receiver ()] names the protocol [run] would
    use, without executing (or an error). *)
val explain :
  sql:string ->
  sender:string * Minidb.Table.t ->
  receiver:string * Minidb.Table.t ->
  unit ->
  (string, string) result
