(* Tests for the executable Appendix A baseline: boolean circuits,
   gate-count formulas, Yao garbling, oblivious transfer, and the full
   circuit-based intersection protocol. *)

module Group = Crypto.Group
module Circuit = Yao.Circuit
module Garble = Yao.Garble
module Ot = Yao.Ot
module Psi_baseline = Yao.Psi_baseline

let g64 = Group.named Group.Test64

let test_rng : Bignum.Nat_rand.rng =
  let d = Crypto.Drbg.create ~seed:"test-yao" in
  Crypto.Drbg.to_rng d

let qtest name ?(count = 100) gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* ------------------------------------------------------------------ *)
(* Plain circuits                                                      *)
(* ------------------------------------------------------------------ *)

let test_equal_circuit_semantics () =
  let w = 8 in
  let c = Circuit.equal ~w in
  List.iter
    (fun (x, y) ->
      Alcotest.(check (list bool))
        (Printf.sprintf "%d = %d" x y)
        [ x = y ]
        (Circuit.eval c ~a:(Circuit.int_to_bits ~w x) ~b:(Circuit.int_to_bits ~w y)))
    [ (0, 0); (0, 1); (255, 255); (170, 85); (200, 200); (1, 128) ]

let test_equal_gate_count_is_ge () =
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "Ge at w=%d" w)
        ((2 * w) - 1)
        (Circuit.gate_count (Circuit.equal ~w)))
    [ 1; 2; 8; 16; 32 ]

let prop_compare_circuit_semantics =
  qtest "compare circuit: lt/eq correct"
    QCheck2.Gen.(pair (int_range 0 65535) (int_range 0 65535))
    (fun (x, y) -> Printf.sprintf "%d vs %d" x y)
    (fun (x, y) ->
      let w = 16 in
      let c = Circuit.compare_lt_eq ~w in
      Circuit.eval c ~a:(Circuit.int_to_bits ~w x) ~b:(Circuit.int_to_bits ~w y)
      = [ x < y; x = y ])

let test_compare_gate_count_is_gl () =
  List.iter
    (fun w ->
      Alcotest.(check int)
        (Printf.sprintf "Gl at w=%d" w)
        ((5 * w) - 3)
        (Circuit.gate_count (Circuit.compare_lt_eq ~w)))
    [ 1; 2; 8; 16; 32 ]

let test_brute_force_circuit_semantics () =
  let w = 6 in
  let v_a = [ 3; 17; 42 ] and v_b = [ 17; 5; 42; 63 ] in
  let c = Circuit.brute_force_intersection ~w ~n_a:3 ~n_b:4 in
  let pack vals = Array.concat (List.map (Circuit.int_to_bits ~w) vals) in
  Alcotest.(check (list bool)) "membership bits"
    [ true; false; true; false ]
    (Circuit.eval c ~a:(pack v_a) ~b:(pack v_b))

let test_brute_force_gate_count () =
  (* n_a*n_b*(2w-1) XNOR/AND equality subcircuits + n_b*(n_a-1) ORs:
     matches (and exceeds) Appendix A's n^2 * Ge lower bound. *)
  let w = 32 and n_a = 7 and n_b = 5 in
  let c = Circuit.brute_force_intersection ~w ~n_a ~n_b in
  Alcotest.(check int) "exact count"
    ((n_a * n_b * ((2 * w) - 1)) + (n_b * (n_a - 1)))
    (Circuit.gate_count c);
  Alcotest.(check bool) "at least n_a*n_b*Ge" true
    (Circuit.gate_count c >= n_a * n_b * ((2 * w) - 1))

let test_int_to_bits () =
  Alcotest.(check bool) "5 = 101" true
    (Circuit.int_to_bits ~w:4 5 = [| true; false; true; false |]);
  Alcotest.(check bool) "overflow rejected" true
    (try
       ignore (Circuit.int_to_bits ~w:3 8);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Garbling                                                            *)
(* ------------------------------------------------------------------ *)

let eval_garbled ?(label_bytes = 8) c ~a ~b =
  let g = Garble.garble ~label_bytes ~seed:"gtest" c in
  let view = Garble.decode_view (Garble.encode_view (Garble.view g)) in
  let a_labels = Garble.input_labels_a g a in
  let pairs = Garble.label_pairs_b g in
  let b_labels = Array.mapi (fun i bit -> (fun (l0, l1) -> if bit then l1 else l0) pairs.(i)) b in
  Garble.evaluate view ~a_labels ~b_labels

let prop_garbled_equals_plain =
  qtest "garbled evaluation = plain evaluation" ~count:60
    QCheck2.Gen.(pair (int_range 0 255) (int_range 0 255))
    (fun (x, y) -> Printf.sprintf "%d vs %d" x y)
    (fun (x, y) ->
      let w = 8 in
      let c = Circuit.compare_lt_eq ~w in
      let a = Circuit.int_to_bits ~w x and b = Circuit.int_to_bits ~w y in
      eval_garbled c ~a ~b = Circuit.eval c ~a ~b)

let test_garbled_brute_force () =
  let w = 5 in
  let c = Circuit.brute_force_intersection ~w ~n_a:3 ~n_b:3 in
  let pack vals = Array.concat (List.map (Circuit.int_to_bits ~w) vals) in
  let a = pack [ 1; 9; 27 ] and b = pack [ 9; 2; 27 ] in
  Alcotest.(check (list bool)) "garbled membership"
    (Circuit.eval c ~a ~b)
    (eval_garbled c ~a ~b)

let test_table_bytes_formula () =
  (* Appendix A charges 4 * k0 bits per gate. *)
  let c = Circuit.equal ~w:16 in
  let g = Garble.garble ~label_bytes:8 ~seed:"s" c in
  Alcotest.(check int) "4 * 8 bytes per gate" (4 * 8 * Circuit.gate_count c)
    (Garble.table_bytes g)

let test_garble_label_sizes () =
  let c = Circuit.equal ~w:4 in
  let g = Garble.garble ~label_bytes:16 ~seed:"s" c in
  Array.iter
    (fun l -> Alcotest.(check int) "a-label width" 16 (String.length l))
    (Garble.input_labels_a g (Circuit.int_to_bits ~w:4 7));
  Alcotest.(check bool) "label_bytes bounds" true
    (try
       ignore (Garble.garble ~label_bytes:2 ~seed:"s" c);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Oblivious transfer                                                  *)
(* ------------------------------------------------------------------ *)

let test_ot_delivers_chosen () =
  let pairs = Array.init 16 (fun i -> (Printf.sprintf "zero-%02d" i, Printf.sprintf "one!-%02d" i)) in
  let choices = Array.init 16 (fun i -> i mod 3 = 0) in
  let o = Ot.run g64 ~pairs ~choices () in
  Array.iteri
    (fun i got ->
      let expected = if choices.(i) then snd pairs.(i) else fst pairs.(i) in
      Alcotest.(check string) (Printf.sprintf "transfer %d" i) expected got)
    o.Wire.Runner.receiver_result

let test_ot_single_and_empty_edgecases () =
  let o = Ot.run g64 ~pairs:[| ("a0", "a1") |] ~choices:[| true |] () in
  Alcotest.(check string) "single" "a1" o.Wire.Runner.receiver_result.(0);
  let o = Ot.run g64 ~pairs:[||] ~choices:[||] () in
  Alcotest.(check int) "empty" 0 (Array.length o.Wire.Runner.receiver_result)

let test_ot_mismatched_lengths_rejected () =
  Alcotest.(check bool) "length mismatch raises" true
    (try
       ignore (Ot.run g64 ~pairs:[| ("short", "longer!") |] ~choices:[| false |] ());
       false
     with Invalid_argument _ -> true)

let test_ot_transcript_hides_choice () =
  (* The receiver's only outbound message is PK_0 per transfer — a group
     element whose distribution is identical for both choices, so the
     transcript alone cannot reveal the choice bits. We check the shape:
     one key per transfer, all fixed-width elements. *)
  let pairs = Array.init 4 (fun i -> (Printf.sprintf "m0-%d" i, Printf.sprintf "m1-%d" i)) in
  let o = Ot.run g64 ~pairs ~choices:[| true; false; true; false |] () in
  match o.Wire.Runner.sender_view with
  | [ { Wire.Message.payload = Wire.Message.Elements keys; _ } ] ->
      Alcotest.(check int) "one PK per transfer" 4 (List.length keys);
      List.iter
        (fun k -> Alcotest.(check int) "fixed width" (Group.element_bytes g64) (String.length k))
        keys
  | _ -> Alcotest.fail "sender view should be exactly the key message"

(* ------------------------------------------------------------------ *)
(* Full circuit-based intersection                                     *)
(* ------------------------------------------------------------------ *)

let test_yao_psi_correct () =
  let r =
    Psi_baseline.run ~group:g64 ~w:10 ~sender_values:[ 5; 800; 77; 1023 ]
      ~receiver_values:[ 77; 3; 1023; 500 ] ()
  in
  Alcotest.(check (list int)) "intersection" [ 77; 1023 ] r.Psi_baseline.intersection

let test_yao_psi_gate_count () =
  let n_a = 4 and n_b = 3 and w = 10 in
  let r =
    Psi_baseline.run ~group:g64 ~w
      ~sender_values:(List.init n_a (fun i -> i))
      ~receiver_values:(List.init n_b (fun i -> 100 + i))
      ()
  in
  Alcotest.(check int) "gates" ((n_a * n_b * ((2 * w) - 1)) + (n_b * (n_a - 1))) r.Psi_baseline.gates;
  Alcotest.(check int) "table bytes = 4*k0*gates" (4 * 8 * r.Psi_baseline.gates)
    r.Psi_baseline.table_bytes;
  Alcotest.(check bool) "tables dominate traffic" true
    (r.Psi_baseline.total_bytes > r.Psi_baseline.table_bytes)

let test_yao_psi_matches_commutative_protocol () =
  (* Both the baseline and the paper's protocol must compute the same
     intersection. *)
  let vs = [ 11; 22; 33; 44; 55 ] and vr = [ 22; 44; 66 ] in
  let yao =
    (Psi_baseline.run ~group:g64 ~w:8 ~sender_values:vs ~receiver_values:vr ()).Psi_baseline.intersection
  in
  let cfg = Psi.Protocol.config g64 in
  let psi =
    match
      (Psi.Session.run cfg
         [
           Psi.Session.Intersect
             { s_values = List.map string_of_int vs; r_values = List.map string_of_int vr };
         ]
         ())
        .Psi.Session.results
    with
    | [ Psi.Session.Values inter ] -> inter
    | _ -> Alcotest.fail "expected one intersection"
  in
  Alcotest.(check (list string)) "same result"
    (List.sort String.compare (List.map string_of_int yao))
    (List.sort String.compare psi)

let test_yao_psi_much_more_expensive () =
  (* The reproduction's headline: at equal n the circuit baseline ships
     orders of magnitude more bytes than the commutative protocol. *)
  let n = 8 in
  let vs = List.init n (fun i -> 2 * i) and vr = List.init n (fun i -> 3 * i) in
  let yao = Psi_baseline.run ~group:g64 ~w:16 ~sender_values:vs ~receiver_values:vr () in
  let cfg = Psi.Protocol.config g64 in
  let psi =
    Psi.Session.run cfg
      [
        Psi.Session.Intersect
          { s_values = List.map string_of_int vs; r_values = List.map string_of_int vr };
      ]
      ()
  in
  let ratio =
    float_of_int yao.Psi_baseline.total_bytes /. float_of_int psi.Psi.Session.total_bytes
  in
  Alcotest.(check bool)
    (Printf.sprintf "circuit %.0fx more traffic" ratio)
    true (ratio > 50.)

let test_yao_psi_rejects_bad_inputs () =
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Psi_baseline.run ~group:g64 ~sender_values:[] ~receiver_values:[ 1 ] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range raises" true
    (try
       ignore
         (Psi_baseline.run ~group:g64 ~w:4 ~sender_values:[ 16 ] ~receiver_values:[ 1 ] ());
       false
     with Invalid_argument _ -> true)

let prop_yao_psi_randomized =
  qtest "yao psi = plaintext intersection" ~count:15
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 6) (int_range 0 255))
        (list_size (int_range 1 6) (int_range 0 255)))
    (fun (a, b) ->
      Printf.sprintf "%s / %s"
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b)))
    (fun (vs, vr) ->
      let r = Psi_baseline.run ~group:g64 ~w:8 ~sender_values:vs ~receiver_values:vr () in
      let expected =
        List.sort_uniq Int.compare (List.filter (fun v -> List.mem v vs) vr)
      in
      List.sort_uniq Int.compare r.Psi_baseline.intersection = expected)

(* ------------------------------------------------------------------ *)

let () =
  ignore test_rng;
  Alcotest.run "yao"
    [
      ( "circuits",
        [
          Alcotest.test_case "equality semantics" `Quick test_equal_circuit_semantics;
          Alcotest.test_case "equality gate count = Ge" `Quick test_equal_gate_count_is_ge;
          prop_compare_circuit_semantics;
          Alcotest.test_case "comparison gate count = Gl" `Quick test_compare_gate_count_is_gl;
          Alcotest.test_case "brute-force semantics" `Quick test_brute_force_circuit_semantics;
          Alcotest.test_case "brute-force gate count" `Quick test_brute_force_gate_count;
          Alcotest.test_case "int_to_bits" `Quick test_int_to_bits;
        ] );
      ( "garbling",
        [
          prop_garbled_equals_plain;
          Alcotest.test_case "garbled brute-force circuit" `Quick test_garbled_brute_force;
          Alcotest.test_case "table bytes = 4*k0*gates" `Quick test_table_bytes_formula;
          Alcotest.test_case "label sizes and bounds" `Quick test_garble_label_sizes;
        ] );
      ( "oblivious-transfer",
        [
          Alcotest.test_case "delivers chosen message" `Quick test_ot_delivers_chosen;
          Alcotest.test_case "edge cases" `Quick test_ot_single_and_empty_edgecases;
          Alcotest.test_case "length mismatch rejected" `Quick test_ot_mismatched_lengths_rejected;
          Alcotest.test_case "transcript shape hides choice" `Quick test_ot_transcript_hides_choice;
        ] );
      ( "circuit-psi",
        [
          Alcotest.test_case "correct intersection" `Quick test_yao_psi_correct;
          Alcotest.test_case "gate/table accounting" `Quick test_yao_psi_gate_count;
          Alcotest.test_case "agrees with commutative protocol" `Quick
            test_yao_psi_matches_commutative_protocol;
          Alcotest.test_case "orders of magnitude more traffic" `Quick
            test_yao_psi_much_more_expensive;
          Alcotest.test_case "input validation" `Quick test_yao_psi_rejects_bad_inputs;
          prop_yao_psi_randomized;
        ] );
    ]
