(* Tests for the query-layer extensions: the third-party intersection
   size (Figure 2's variant), the generalized private GROUP BY, the
   §2.3 audit policies, and the four paper operations plus the audit
   gate as SQL queries through Sql_private (the "private-query" group). *)

module Runner = Wire.Runner
module Group = Crypto.Group
module P = Psi.Protocol
open Minidb

let g64 = Group.named Group.Test64
let cfg = P.config g64
let value = Alcotest.testable Value.pp Value.equal

(* Two small private tables used throughout. *)
let customers_s =
  Table.create
    (Schema.make
       [ Schema.col "email" Value.TText; Schema.col "plan" Value.TText; Schema.col "spend" Value.TInt ])
    [
      [| Value.Text "ada@x.com"; Value.Text "pro"; Value.Int 120 |];
      [| Value.Text "bob@x.com"; Value.Text "free"; Value.Int 0 |];
      [| Value.Text "cleo@x.com"; Value.Text "pro"; Value.Int 310 |];
      [| Value.Text "dan@x.com"; Value.Text "team"; Value.Int 75 |];
    ]

let customers_r =
  Table.create
    (Schema.make [ Schema.col "email" Value.TText; Schema.col "region" Value.TText ])
    [
      [| Value.Text "bob@x.com"; Value.Text "eu" |];
      [| Value.Text "cleo@x.com"; Value.Text "us" |];
      [| Value.Text "eve@x.com"; Value.Text "eu" |];
    ]

(* ------------------------------------------------------------------ *)
(* Third-party intersection size                                       *)
(* ------------------------------------------------------------------ *)

let test_third_party_size () =
  let r =
    Psi.Intersection_size.run_to_third_party cfg ~sender_values:[ "a"; "b"; "c" ]
      ~receiver_values:[ "b"; "c"; "d"; "e" ] ()
  in
  Alcotest.(check int) "size" 2 r.Psi.Intersection_size.size;
  Alcotest.(check bool) "bytes counted" true (r.Psi.Intersection_size.total_bytes > 0);
  (* Figure 2's cost: comm = 2(|a| + |b|) codewords (Y's + Z's to T). *)
  let k = Group.element_bytes g64 in
  let payload = 2 * (3 + 4) * k in
  Alcotest.(check bool) "comm ~ 2(|V_R|+|V_S|)k" true
    (r.Psi.Intersection_size.total_bytes >= payload
    && r.Psi.Intersection_size.total_bytes <= payload + 256);
  (* Pinned: the exact bytes, and Ce = 2(|V_S| + |V_R|). *)
  Alcotest.(check int) "total bytes" 236 r.Psi.Intersection_size.total_bytes;
  Alcotest.(check int) "encryptions" 14 r.Psi.Intersection_size.ops.Psi.Protocol.encryptions;
  Alcotest.(check int) "hashes" 7 r.Psi.Intersection_size.ops.Psi.Protocol.hashes

let test_third_party_size_empty () =
  let r =
    Psi.Intersection_size.run_to_third_party cfg ~sender_values:[] ~receiver_values:[ "x" ] ()
  in
  Alcotest.(check int) "empty sender" 0 r.Psi.Intersection_size.size

(* ------------------------------------------------------------------ *)
(* Group_by                                                            *)
(* ------------------------------------------------------------------ *)

let test_group_by_matches_plaintext () =
  let run_both ?s_filter () =
    let private_cells =
      (Psi.Group_by.run cfg ~t_r:customers_r ~r_key:"email" ~r_class:"region"
         ~t_s:customers_s ~s_key:"email" ~s_class:"plan" ?s_filter ())
        .Psi.Group_by.cells
    in
    let plain =
      Psi.Group_by.plaintext ~t_r:customers_r ~r_key:"email" ~r_class:"region"
        ~t_s:customers_s ~s_key:"email" ~s_class:"plan" ?s_filter ()
    in
    Alcotest.(check (list (pair (pair value value) int))) "cells" plain private_cells
  in
  run_both ();
  run_both ~s_filter:(fun t row -> Value.compare (Table.get t row "spend") (Value.Int 50) > 0) ()

let test_group_by_cell_values () =
  let g =
    Psi.Group_by.run cfg ~t_r:customers_r ~r_key:"email" ~r_class:"region" ~t_s:customers_s
      ~s_key:"email" ~s_class:"plan" ()
  in
  (* bob (eu, free) and cleo (us, pro) join. *)
  Alcotest.(check int) "eu-free" 1
    (Option.value ~default:0
       (List.assoc_opt (Value.Text "eu", Value.Text "free") g.Psi.Group_by.cells));
  Alcotest.(check int) "us-pro" 1
    (Option.value ~default:0
       (List.assoc_opt (Value.Text "us", Value.Text "pro") g.Psi.Group_by.cells));
  Alcotest.(check int) "eu-pro" 0
    (Option.value ~default:0
       (List.assoc_opt (Value.Text "eu", Value.Text "pro") g.Psi.Group_by.cells));
  (* Class sizes (the leaked "additional information I"). *)
  Alcotest.(check (list (pair value int))) "R class sizes"
    [ (Value.Text "eu", 2); (Value.Text "us", 1) ]
    g.Psi.Group_by.r_class_sizes

let test_group_by_medical_consistency () =
  (* Medical.run is the 2x2 instance; the two layers must agree. *)
  let t_r, t_s, _ =
    Psi.Workload.medical_tables ~seed:"gb" ~n_patients:150 ~p_pattern:0.4 ~p_drug:0.6
      ~p_reaction:0.2
  in
  let m = (Psi.Medical.run cfg ~t_r ~t_s ()).Psi.Medical.counts in
  let g =
    Psi.Group_by.run cfg ~t_r ~r_key:"person_id" ~r_class:"pattern" ~t_s ~s_key:"person_id"
      ~s_class:"reaction"
      ~s_filter:(fun t row -> Value.equal (Table.get t row "drug") (Value.Bool true))
      ()
  in
  let cell p r =
    Option.value ~default:0 (List.assoc_opt (Value.Bool p, Value.Bool r) g.Psi.Group_by.cells)
  in
  Alcotest.(check int) "tt" m.Psi.Medical.pattern_and_reaction (cell true true);
  Alcotest.(check int) "ff" m.Psi.Medical.no_pattern_no_reaction (cell false false)

let test_group_by_degenerate_cohorts () =
  (* Nobody took the drug: S-side partition is empty -> no cells, and
     the medical wrapper reports all-zero counts without crashing. *)
  let open Minidb in
  let t_r =
    Table.create
      (Schema.make [ Schema.col "person_id" Value.TInt; Schema.col "pattern" Value.TBool ])
      [ [| Value.Int 1; Value.Bool true |]; [| Value.Int 2; Value.Bool false |] ]
  in
  let t_s =
    Table.create
      (Schema.make
         [ Schema.col "person_id" Value.TInt; Schema.col "drug" Value.TBool;
           Schema.col "reaction" Value.TBool ])
      [ [| Value.Int 1; Value.Bool false; Value.Bool false |] ]
  in
  let m = (Psi.Medical.run cfg ~t_r ~t_s ()).Psi.Medical.counts in
  Alcotest.(check int) "all zero" 0
    (m.Psi.Medical.pattern_and_reaction + m.Psi.Medical.pattern_no_reaction
    + m.Psi.Medical.no_pattern_and_reaction + m.Psi.Medical.no_pattern_no_reaction);
  (* Single-class sides work too (everyone has the pattern). *)
  let t_r1 =
    Table.create (Table.schema t_r)
      [ [| Value.Int 1; Value.Bool true |]; [| Value.Int 3; Value.Bool true |] ]
  in
  let t_s1 =
    Table.create (Table.schema t_s)
      [ [| Value.Int 1; Value.Bool true; Value.Bool true |];
        [| Value.Int 3; Value.Bool true; Value.Bool true |] ]
  in
  let g =
    Psi.Group_by.run cfg ~t_r:t_r1 ~r_key:"person_id" ~r_class:"pattern" ~t_s:t_s1
      ~s_key:"person_id" ~s_class:"reaction" ()
  in
  Alcotest.(check (list (pair (pair value value) int))) "single cell"
    [ ((Value.Bool true, Value.Bool true), 2) ]
    g.Psi.Group_by.cells

let test_group_by_multiclass () =
  (* More than two classes per side. *)
  let t_r =
    Table.create
      (Schema.make [ Schema.col "id" Value.TInt; Schema.col "tier" Value.TInt ])
      (List.init 30 (fun i -> [| Value.Int i; Value.Int (i mod 3) |]))
  in
  let t_s =
    Table.create
      (Schema.make [ Schema.col "id" Value.TInt; Schema.col "bucket" Value.TInt ])
      (List.init 20 (fun i -> [| Value.Int (2 * i); Value.Int (i mod 4) |]))
  in
  let g =
    Psi.Group_by.run cfg ~t_r ~r_key:"id" ~r_class:"tier" ~t_s ~s_key:"id" ~s_class:"bucket" ()
  in
  let plain =
    Psi.Group_by.plaintext ~t_r ~r_key:"id" ~r_class:"tier" ~t_s ~s_key:"id"
      ~s_class:"bucket" ()
  in
  Alcotest.(check int) "12 cells" 12 (List.length g.Psi.Group_by.cells);
  Alcotest.(check (list (pair (pair value value) int))) "matches oracle" plain
    g.Psi.Group_by.cells;
  (* Total of the table = join size of the filtered keys. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 g.Psi.Group_by.cells in
  Alcotest.(check int) "sums to join size" (Relop.equijoin_size t_r t_s ~on:("id", "id")) total

(* ------------------------------------------------------------------ *)
(* Audit (§2.3)                                                        *)
(* ------------------------------------------------------------------ *)

let test_audit_query_limit () =
  let a = Psi.Audit.create { Psi.Audit.permissive with Psi.Audit.max_queries_per_peer = Some 2 } in
  let q i =
    Psi.Audit.check_query a ~peer:"r1" ~operation:"intersect" ~scope:""
      ~input_values:[ string_of_int i ]
  in
  Alcotest.(check bool) "q1" true (q 1 = Psi.Audit.Allow);
  Alcotest.(check bool) "q2" true (q 2 = Psi.Audit.Allow);
  Alcotest.(check bool) "q3 denied" true (match q 3 with Psi.Audit.Deny _ -> true | Psi.Audit.Allow -> false);
  (* Another peer is unaffected. *)
  Alcotest.(check bool) "other peer" true
    (Psi.Audit.check_query a ~peer:"r2" ~operation:"intersect" ~scope:"" ~input_values:[ "x" ]
    = Psi.Audit.Allow)

let test_audit_overlap_defence () =
  let a =
    Psi.Audit.create { Psi.Audit.permissive with Psi.Audit.max_input_overlap = Some 0.5 }
  in
  let q vs = Psi.Audit.check_query a ~peer:"r" ~operation:"intersect" ~scope:"" ~input_values:vs in
  Alcotest.(check bool) "first allowed" true (q [ "a"; "b"; "c"; "d" ] = Psi.Audit.Allow);
  (* Identical repeat reveals nothing new: allowed. *)
  Alcotest.(check bool) "exact repeat allowed" true
    (q [ "a"; "b"; "c"; "d" ] = Psi.Audit.Allow);
  (* The same set under another scope is not a repeat: it overlaps fully. *)
  Alcotest.(check bool) "same set, other scope denied" true
    (match
       Psi.Audit.check_query a ~peer:"r" ~operation:"intersect" ~scope:"spend > 0"
         ~input_values:[ "a"; "b"; "c"; "d" ]
     with
    | Psi.Audit.Deny _ -> true
    | Psi.Audit.Allow -> false);
  (* 3/4 of the new query repeats the old one: tracker-style differencing. *)
  Alcotest.(check bool) "tracker denied" true
    (match q [ "a"; "b"; "c"; "e" ] with Psi.Audit.Deny _ -> true | Psi.Audit.Allow -> false);
  (* Disjoint query is fine. *)
  Alcotest.(check bool) "disjoint allowed" true (q [ "p"; "q"; "r"; "s" ] = Psi.Audit.Allow);
  (* Denied queries are not remembered for overlap purposes. *)
  Alcotest.(check bool) "repeat of denied still judged vs allowed set" true
    (q [ "p"; "q"; "x"; "y" ] = Psi.Audit.Allow)

let test_audit_result_rules () =
  let a =
    Psi.Audit.create
      {
        Psi.Audit.permissive with
        Psi.Audit.min_result_size = Some 3;
        Psi.Audit.max_result_fraction = Some 0.5;
      }
  in
  ignore (Psi.Audit.check_query a ~peer:"r" ~operation:"intersect" ~scope:"" ~input_values:[ "a" ]);
  Alcotest.(check bool) "tiny result denied" true
    (match Psi.Audit.check_result a ~peer:"r" ~result_size:2 ~own_set_size:100 with
    | Psi.Audit.Deny _ -> true
    | Psi.Audit.Allow -> false);
  Alcotest.(check bool) "zero result fine" true
    (Psi.Audit.check_result a ~peer:"r" ~result_size:0 ~own_set_size:100 = Psi.Audit.Allow);
  Alcotest.(check bool) "over-revealing denied" true
    (match Psi.Audit.check_result a ~peer:"r" ~result_size:80 ~own_set_size:100 with
    | Psi.Audit.Deny _ -> true
    | Psi.Audit.Allow -> false);
  Alcotest.(check bool) "normal result fine" true
    (Psi.Audit.check_result a ~peer:"r" ~result_size:30 ~own_set_size:100 = Psi.Audit.Allow)

let test_audit_trail () =
  let a = Psi.Audit.create Psi.Audit.default_policy in
  ignore
    (Psi.Audit.check_query a ~peer:"r" ~operation:"intersect" ~scope:"" ~input_values:[ "a"; "b" ]);
  ignore (Psi.Audit.check_result a ~peer:"r" ~result_size:5 ~own_set_size:50);
  match Psi.Audit.log a with
  | [ e ] ->
      Alcotest.(check string) "peer" "r" e.Psi.Audit.peer;
      Alcotest.(check string) "op" "intersect" e.Psi.Audit.operation;
      Alcotest.(check int) "input size" 2 e.Psi.Audit.input_size;
      Alcotest.(check (option int)) "result recorded" (Some 5) e.Psi.Audit.result_size
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Relational queries through the SQL front door                       *)
(* ------------------------------------------------------------------ *)

(* The receiver's table is "r", the sender's "s". *)
let private_sql ?audit ?peer sql =
  Psi.Sql_private.run cfg ?audit ?peer ~sql ~sender:("s", customers_s)
    ~receiver:("r", customers_r) ()

let run_ok sql =
  match private_sql sql with
  | Ok o -> Table.rows o.Psi.Sql_private.table
  | Error e -> Alcotest.failf "unexpected rejection: %s" e

let on_email = " from r, s where r.email = s.email"

let test_pq_intersect () =
  Alcotest.(check (list value)) "values"
    [ Value.Text "bob@x.com"; Value.Text "cleo@x.com" ]
    (List.sort Value.compare
       (List.map (fun row -> row.(0)) (run_ok ("select r.email" ^ on_email))))

let test_pq_intersect_size () =
  match run_ok ("select count(distinct s.email)" ^ on_email) with
  | [ [| n |] ] -> Alcotest.(check value) "size" (Value.Int 2) n
  | _ -> Alcotest.fail "expected one cell"

let test_pq_equijoin_typed_payload () =
  let rows = run_ok ("select r.email, s.plan, s.spend" ^ on_email) in
  Alcotest.(check int) "two joining values" 2 (List.length rows);
  Alcotest.(check (list (list value))) "typed payload round-trip"
    [ [ Value.Text "cleo@x.com"; Value.Text "pro"; Value.Int 310 ] ]
    (List.filter_map
       (fun row -> if row.(0) = Value.Text "cleo@x.com" then Some (Array.to_list row) else None)
       rows)

let test_pq_equijoin_size () =
  match run_ok ("select count(*)" ^ on_email) with
  | [ [| n |] ] ->
      Alcotest.(check value) "size matches relop"
        (Value.Int (Relop.equijoin_size customers_r customers_s ~on:("email", "email")))
        n
  | _ -> Alcotest.fail "expected one cell"

let test_pq_matches_plaintext_all_specs () =
  let resolve = function "r" -> customers_r | _ -> customers_s in
  let cells rows =
    List.sort compare (List.map (fun r -> List.map Value.key (Array.to_list r)) rows)
  in
  List.iter
    (fun select ->
      let sql = select ^ on_email in
      Alcotest.(check (list (list string)))
        ("oracle agreement: " ^ select)
        (cells (Table.rows (Sql.execute resolve (Sql.parse sql))))
        (cells (run_ok sql)))
    [
      "select r.email";
      "select count(distinct r.email)";
      "select s.email, s.plan";
      "select count(*)";
    ]

let test_pq_audit_denies_over_revealing () =
  (* R's set is a subset probe revealing 100% of what it asks about;
     with max_result_fraction = 0.4 over S's 4 values, the 2-element
     answer (50%) is denied. *)
  let audit =
    Psi.Audit.create
      { Psi.Audit.permissive with Psi.Audit.max_result_fraction = Some 0.4 }
  in
  match private_sql ~audit ("select r.email" ^ on_email) with
  | Error reason -> Alcotest.(check bool) "denied with reason" true (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected denial"

let test_pq_audit_allows_and_logs () =
  (* Every shape is logged under its operation name, with R's key set as
     the input and |V_R ∩ V_S| (the join size for COUNT( * )) as the
     result. *)
  let audit = Psi.Audit.create Psi.Audit.permissive in
  let shapes =
    [
      ("select r.email" ^ on_email, "intersect");
      ("select count(distinct r.email)" ^ on_email, "intersect_size");
      ("select s.plan" ^ on_email, "equijoin");
      ("select count(*)" ^ on_email, "equijoin_size");
      ("select sum(s.spend)" ^ on_email, "sum");
      ("select r.region, s.plan, count(*)" ^ on_email ^ " group by r.region, s.plan", "group_by");
    ]
  in
  List.iter
    (fun (sql, _) ->
      match private_sql ~audit ~peer:"acme" sql with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unexpected denial: %s" e)
    shapes;
  Alcotest.(check int) "logged" (List.length shapes) (Psi.Audit.queries_from audit ~peer:"acme");
  Alcotest.(check (list (triple string int (option int))))
    "operation, |input|, result size"
    (List.map (fun (_, op) -> (op, 3, Some 2)) shapes)
    (List.map
       (fun (e : Psi.Audit.entry) ->
         (e.Psi.Audit.operation, e.Psi.Audit.input_size, e.Psi.Audit.result_size))
       (Psi.Audit.log audit))

let test_pq_audit_denial_starts_no_session () =
  (* A denied query returns its Error before any protocol byte is sent:
     the executor's session counters stay untouched. *)
  let audit = Psi.Audit.create { Psi.Audit.permissive with Psi.Audit.min_result_size = Some 3 } in
  let counter snap name = Option.value ~default:0 (Obs.Metrics.find_counter snap name) in
  Obs.Runtime.with_enabled (fun () ->
      Obs.Metrics.reset ();
      (match private_sql ~audit ("select r.email" ^ on_email) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected denial");
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int) "no session op" 0 (counter snap "session.operations");
      Alcotest.(check int) "no wire bytes" 0 (counter snap "session.wire_bytes");
      (* The same query without the policy does reach the wire. *)
      ignore (run_ok ("select r.email" ^ on_email));
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check bool) "counters see an allowed run" true
        (counter snap "session.operations" = 1 && counter snap "session.wire_bytes" > 0);
      Obs.Metrics.reset ())

let test_pq_audit_denies_sender_filter_differencing () =
  (* The receiver writes the sender's filters too: keeping R's set and
     dropping one S row by a filter would isolate that row by
     subtraction, so only the unchanged query passes as an exact
     repeat. Choosing another S join column is denied the same way. *)
  let audit = Psi.Audit.create { Psi.Audit.permissive with Psi.Audit.max_input_overlap = Some 0.9 } in
  let allowed sql = Result.is_ok (private_sql ~audit sql) in
  Alcotest.(check bool) "first query" true (allowed ("select count(*)" ^ on_email));
  Alcotest.(check bool) "exact repeat" true (allowed ("select count(*)" ^ on_email));
  Alcotest.(check bool) "other shape, same scope" true (allowed ("select r.email" ^ on_email));
  Alcotest.(check bool) "one S row filtered out" false
    (allowed ("select count(*)" ^ on_email ^ " and s.spend > 0"));
  Alcotest.(check bool) "other S join column" false
    (allowed "select count(*) from r, s where r.email = s.plan");
  (* A composite key's R set is not comparable with a single column's. *)
  match private_sql ~audit "select count(*) from r, s where r.email = s.email and r.region = s.plan" with
  | Error reason -> Alcotest.(check bool) "composite key refused" true (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected a refusal"

let test_pq_missing_column () =
  match private_sql "select r.nope from r, s where r.nope = s.email" with
  | Error reason -> Alcotest.(check bool) "names the column" true (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected an error"

(* ------------------------------------------------------------------ *)
(* Aggregate (private equijoin SUM, §7 future work)                    *)
(* ------------------------------------------------------------------ *)

let agg_records = [ ("a", 10); ("b", 20); ("b", 5); ("c", 7); ("d", 100) ]

let test_aggregate_basic () =
  let o =
    Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:agg_records
      ~receiver_values:[ "b"; "c"; "x" ] ()
  in
  let r = o.Runner.receiver_result in
  (* b contributes 25 (two records), c contributes 7. *)
  Alcotest.(check int) "sum" 32 r.Psi.Aggregate.sum;
  Alcotest.(check (list string)) "intersection" [ "b"; "c" ] r.Psi.Aggregate.intersection;
  Alcotest.(check int) "|V_S|" 4 r.Psi.Aggregate.v_s_count;
  Alcotest.(check int) "|V_R|" 3 o.Runner.sender_result.Psi.Aggregate.v_r_count

let test_aggregate_empty_intersection () =
  let o =
    Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:agg_records
      ~receiver_values:[ "q"; "z" ] ()
  in
  Alcotest.(check int) "sum 0" 0 o.Runner.receiver_result.Psi.Aggregate.sum;
  Alcotest.(check (list string)) "no matches" []
    o.Runner.receiver_result.Psi.Aggregate.intersection

let test_aggregate_full_overlap () =
  let o =
    Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:agg_records
      ~receiver_values:[ "a"; "b"; "c"; "d" ] ()
  in
  Alcotest.(check int) "total" 142 o.Runner.receiver_result.Psi.Aggregate.sum

let test_aggregate_zero_contributions () =
  let o =
    Psi.Aggregate.run cfg ~key_bits:128
      ~sender_records:[ ("a", 0); ("b", 0) ]
      ~receiver_values:[ "a"; "b" ] ()
  in
  Alcotest.(check int) "all zeros" 0 o.Runner.receiver_result.Psi.Aggregate.sum

let test_aggregate_negative_rejected () =
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore
         (Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:[ ("a", -1) ]
            ~receiver_values:[ "a" ] ());
       false
     with Invalid_argument _ -> true)

let test_aggregate_sender_never_sees_plaintext_sum () =
  (* S's view: Y_R (sorted group elements) and one Paillier ciphertext.
     The decrypted value S sees is sum + rho, uniform mod n -- here we
     check the structural property: the blinded message is a single
     ciphertext-sized blob, not a plaintext integer. *)
  let o =
    Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:agg_records
      ~receiver_values:[ "b"; "c" ] ()
  in
  let blinded =
    List.find
      (fun (m : Wire.Message.t) -> m.Wire.Message.tag = "aggregate/blinded")
      o.Runner.sender_view
  in
  match blinded.Wire.Message.payload with
  | Wire.Message.Elements [ c ] ->
      Alcotest.(check bool) "ciphertext sized" true (String.length c >= 32)
  | _ -> Alcotest.fail "expected a single ciphertext"

let test_aggregate_op_counts_match_model () =
  let o =
    Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:agg_records
      ~receiver_values:[ "b"; "c"; "x" ] ()
  in
  let s = o.Runner.sender_result.Psi.Aggregate.ops in
  let r = o.Runner.receiver_result.Psi.Aggregate.ops in
  (* |V_S| = 4 distinct sender values, |V_R| = 3, intersection = 2. *)
  let hashes, ce, pail = Psi.Aggregate.exact_ops ~v_s:4 ~v_r:3 ~intersection:2 in
  Alcotest.(check int) "hashes" hashes (s.P.hashes + r.P.hashes);
  Alcotest.(check int) "Ce = |V_S| + 3|V_R|" ce (s.P.encryptions + r.P.encryptions);
  Alcotest.(check int) "Paillier ops" pail (s.P.cipher_ops + r.P.cipher_ops)

let test_aggregate_estimate_shape () =
  let e =
    Psi.Aggregate.estimate Psi.Cost_model.paper_params ~v_s:1000 ~v_r:1000 ()
  in
  (* Ce part: 1000 + 3000 = 4000; Paillier: 1002*4 = 4008. *)
  Alcotest.(check bool) "encryptions ~ 8008" true
    (Float.abs (e.Psi.Cost_model.encryptions -. 8008.) < 1.);
  Alcotest.(check bool) "comm > plain intersection size" true
    (e.Psi.Cost_model.comm_bits > 3000. *. 1024.)

let test_aggregate_randomized () =
  List.iter
    (fun seed ->
      let base_s, base_r =
        Psi.Workload.value_sets ~seed ~n_s:20 ~n_r:15 ~overlap:8
      in
      let records = List.mapi (fun i v -> (v, (i * 13) mod 97)) base_s in
      let o =
        Psi.Aggregate.run cfg ~key_bits:128 ~seed ~sender_records:records
          ~receiver_values:base_r ()
      in
      let expected =
        List.fold_left
          (fun acc (v, x) -> if List.mem v base_r then acc + x else acc)
          0 records
      in
      Alcotest.(check int) (seed ^ ": sum") expected
        o.Runner.receiver_result.Psi.Aggregate.sum)
    [ "agg-1"; "agg-2"; "agg-3" ]

(* ------------------------------------------------------------------ *)
(* PIR (private selection, §2.4)                                       *)
(* ------------------------------------------------------------------ *)

let pir_records = [ "alpha"; "bravo-longer-record"; ""; "delta\x00with\x00nuls"; "echo" ]

let test_pir_retrieves_every_index () =
  List.iteri
    (fun i expected ->
      let o = Psi.Pir.run ~key_bits:128 ~records:pir_records ~index:i () in
      Alcotest.(check string)
        (Printf.sprintf "record %d" i)
        expected o.Runner.receiver_result.Psi.Pir.record)
    pir_records

let test_pir_single_record () =
  let o = Psi.Pir.run ~key_bits:128 ~records:[ "only" ] ~index:0 () in
  Alcotest.(check string) "single" "only" o.Runner.receiver_result.Psi.Pir.record

let test_pir_long_records_chunked () =
  (* Records longer than one Paillier chunk (128-bit key => ~14-byte
     chunks) exercise the multi-chunk reply path. *)
  let records = [ String.make 100 'a'; String.make 100 'b'; String.make 37 'c' ] in
  let o = Psi.Pir.run ~key_bits:128 ~records ~index:1 () in
  Alcotest.(check string) "100-byte record" (String.make 100 'b')
    o.Runner.receiver_result.Psi.Pir.record;
  Alcotest.(check int) "count" 3 o.Runner.sender_result.Psi.Pir.record_count

let test_pir_index_validation () =
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Psi.Pir.run ~key_bits:128 ~records:pir_records ~index:5 ());
       false
     with Invalid_argument _ -> true)

(* A sender whose reply header claims a 2^40-byte record but sends one
   chunk: the receiver refuses the claim with a typed error before
   sizing anything by it. *)
let test_pir_width_bound () =
  let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"pir-width") in
  let lying_sender ep =
    let pub =
      match P.elements_of (P.recv_tagged ep "pir/query") with
      | pub_enc :: _ -> Result.get_ok (Crypto.Paillier.decode_public pub_enc)
      | [] -> Alcotest.fail "empty query"
    in
    let header =
      let w = Wire.Buf.writer () in
      Wire.Buf.write_varint w (1 lsl 40);
      Wire.Buf.contents w
    in
    let chunk =
      Crypto.Paillier.encode_ciphertext pub (Crypto.Paillier.encrypt pub ~rng Bignum.Nat.zero)
    in
    Wire.Channel.send ep
      (Wire.Message.make ~tag:"pir/reply" (Wire.Message.Elements [ header; chunk ]))
  in
  let before = Gc.allocated_bytes () in
  (match
     Runner.run ~sender:lying_sender
       ~receiver:(Psi.Pir.receiver ~rng ~key_bits:128 ~count:2 ~index:0)
   with
  | _ -> Alcotest.fail "a 2^40-byte width was accepted"
  | exception Wire.Protocol_error _ -> ());
  Alcotest.(check bool) "nothing large allocated" true
    (Gc.allocated_bytes () -. before < float_of_int (64 lsl 20))

(* A receiver whose query does not decode — an even modulus, or a
   ciphertext one byte short — is refused by the sender as the peer's
   violation, which no reconnect cures, not as a local bug. *)
let test_pir_bad_query () =
  let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"pir-bad-query") in
  let pub, _ = Crypto.Paillier.keygen ~rng ~bits:128 in
  let ct = Crypto.Paillier.encode_ciphertext pub (Crypto.Paillier.encrypt pub ~rng Bignum.Nat.one) in
  let even_key =
    Bignum.Nat.to_bytes_be (Bignum.Nat.succ (Crypto.Paillier.modulus pub))
  in
  let short_ct = String.sub ct 0 (String.length ct - 1) in
  List.iter
    (fun (name, query) ->
      let fake_receiver ep =
        Wire.Channel.send ep (Wire.Message.make ~tag:"pir/query" (Wire.Message.Elements query));
        ignore (Wire.Channel.recv ep)
      in
      match
        Runner.run
          ~sender:(Psi.Pir.sender ~rng ~records:[ "a"; "b" ])
          ~receiver:fake_receiver
      with
      | _ -> Alcotest.failf "%s: query accepted" name
      | exception Wire.Peer_violation _ -> ()
      | exception e -> Alcotest.failf "%s: unexpected %s" name (Printexc.to_string e))
    [
      ("even modulus", [ even_key; ct; ct ]);
      ("short ciphertext", [ Crypto.Paillier.encode_public pub; ct; short_ct ]);
    ]

let test_pir_query_hides_index () =
  (* S's view: the public key plus [count] ciphertexts — same shape and
     sizes whatever the index. *)
  let view index =
    let o = Psi.Pir.run ~key_bits:128 ~seed:"fixed" ~records:pir_records ~index () in
    List.map
      (fun (m : Wire.Message.t) ->
        match m.Wire.Message.payload with
        | Wire.Message.Elements es -> (m.Wire.Message.tag, List.map String.length es)
        | _ -> Alcotest.fail "unexpected payload")
      o.Runner.sender_view
  in
  Alcotest.(check (list (pair string (list int)))) "identical shapes" (view 0) (view 4)

(* ------------------------------------------------------------------ *)
(* Value.of_key (used by the planner round-trip)                       *)
(* ------------------------------------------------------------------ *)

let test_value_of_key_roundtrip () =
  List.iter
    (fun v -> Alcotest.check value (Value.key v) v (Value.of_key (Value.key v)))
    [
      Value.Null; Value.Bool true; Value.Bool false; Value.Int 0; Value.Int (-42);
      Value.Int max_int; Value.Float 2.5; Value.Float (-0.125); Value.Text "";
      Value.Text "I42"; Value.Text "naïve";
    ];
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Value.of_key "Zwat");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "query-layer"
    [
      ( "third-party-size",
        [
          Alcotest.test_case "size and bytes" `Quick test_third_party_size;
          Alcotest.test_case "empty side" `Quick test_third_party_size_empty;
        ] );
      ( "group-by",
        [
          Alcotest.test_case "matches plaintext (with/without filter)" `Quick
            test_group_by_matches_plaintext;
          Alcotest.test_case "cell values" `Quick test_group_by_cell_values;
          Alcotest.test_case "medical = 2x2 instance" `Quick test_group_by_medical_consistency;
          Alcotest.test_case "multi-class tables" `Quick test_group_by_multiclass;
          Alcotest.test_case "degenerate cohorts" `Quick test_group_by_degenerate_cohorts;
        ] );
      ( "audit",
        [
          Alcotest.test_case "query limit per peer" `Quick test_audit_query_limit;
          Alcotest.test_case "overlap (tracker) defence" `Quick test_audit_overlap_defence;
          Alcotest.test_case "result-size rules" `Quick test_audit_result_rules;
          Alcotest.test_case "audit trail" `Quick test_audit_trail;
        ] );
      ( "private-query",
        [
          Alcotest.test_case "intersect" `Quick test_pq_intersect;
          Alcotest.test_case "intersect size" `Quick test_pq_intersect_size;
          Alcotest.test_case "equijoin typed payload" `Quick test_pq_equijoin_typed_payload;
          Alcotest.test_case "equijoin size" `Quick test_pq_equijoin_size;
          Alcotest.test_case "all specs match oracle" `Quick test_pq_matches_plaintext_all_specs;
          Alcotest.test_case "audit denies over-revealing" `Quick test_pq_audit_denies_over_revealing;
          Alcotest.test_case "audit allows and logs" `Quick test_pq_audit_allows_and_logs;
          Alcotest.test_case "audit denial starts no session" `Quick
            test_pq_audit_denial_starts_no_session;
          Alcotest.test_case "audit denies sender-filter differencing" `Quick
            test_pq_audit_denies_sender_filter_differencing;
          Alcotest.test_case "missing column" `Quick test_pq_missing_column;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "basic sum with multi-records" `Quick test_aggregate_basic;
          Alcotest.test_case "empty intersection" `Quick test_aggregate_empty_intersection;
          Alcotest.test_case "full overlap" `Quick test_aggregate_full_overlap;
          Alcotest.test_case "zero contributions" `Quick test_aggregate_zero_contributions;
          Alcotest.test_case "negative rejected" `Quick test_aggregate_negative_rejected;
          Alcotest.test_case "sender sees only blinded ciphertext" `Quick
            test_aggregate_sender_never_sees_plaintext_sum;
          Alcotest.test_case "op counts match model" `Quick test_aggregate_op_counts_match_model;
          Alcotest.test_case "estimate shape" `Quick test_aggregate_estimate_shape;
          Alcotest.test_case "randomized sums" `Slow test_aggregate_randomized;
        ] );
      ( "pir",
        [
          Alcotest.test_case "retrieves every index" `Quick test_pir_retrieves_every_index;
          Alcotest.test_case "single record" `Quick test_pir_single_record;
          Alcotest.test_case "multi-chunk records" `Quick test_pir_long_records_chunked;
          Alcotest.test_case "index validation" `Quick test_pir_index_validation;
          Alcotest.test_case "query shape hides index" `Quick test_pir_query_hides_index;
          Alcotest.test_case "reply width bounded by its chunks" `Quick test_pir_width_bound;
          Alcotest.test_case "undecodable query is a peer violation" `Quick test_pir_bad_query;
        ] );
      ( "value-keys",
        [ Alcotest.test_case "of_key inverts key" `Quick test_value_of_key_roundtrip ] );
    ]
