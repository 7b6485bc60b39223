(* Tests for the bignum substrate: Nat, Integer, Modular, Prime, Nat_rand.
   The division and Montgomery kernels are the foundation of every
   protocol, so they are cross-checked against independent oracles
   (binary long division, pow_binary) with property-based tests. *)

module Nat = Bignum.Nat
module Integer = Bignum.Integer
module Modular = Bignum.Modular
module Prime = Bignum.Prime
module Nat_rand = Bignum.Nat_rand

let nat = Alcotest.testable Nat.pp Nat.equal

(* Deterministic rng for number-theory tests. *)
let test_rng : Nat_rand.rng =
  let st = Random.State.make [| 0x5eed; 42 |] in
  fun n -> String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

let gen_nat_bytes max_bytes =
  QCheck2.Gen.(
    bind (int_range 0 max_bytes) (fun n ->
        map (fun l -> Nat.of_bytes_be (String.init n (List.nth l)))
          (list_repeat n (map Char.chr (int_range 0 255)))))

(* Helper to register a qcheck property as an alcotest case. *)
let qtest name ?(count = 300) gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print gen prop)

let nat_print = Nat.to_decimal
let nat_gen = gen_nat_bytes 48
let nat_pair = QCheck2.Gen.pair nat_gen nat_gen
let nat_pair_print (a, b) = nat_print a ^ ", " ^ nat_print b
let nat_triple = QCheck2.Gen.triple nat_gen nat_gen nat_gen

let nat_triple_print (a, b, c) =
  nat_print a ^ ", " ^ nat_print b ^ ", " ^ nat_print c

(* ------------------------------------------------------------------ *)
(* Nat: conversions                                                    *)
(* ------------------------------------------------------------------ *)

let test_of_int_roundtrip () =
  List.iter
    (fun i -> Alcotest.(check (option int)) "roundtrip" (Some i) (Nat.to_int (Nat.of_int i)))
    [ 0; 1; 2; 25; 26; 63; 64; 0x3ffffff; 0x4000000; 0x4000001; max_int ]

let test_of_int_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)))

let test_decimal_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_decimal (Nat.of_decimal s)))
    [
      "0";
      "1";
      "10000000";
      "99999999999999999999999999999999";
      "123456789012345678901234567890123456789012345678901234567890";
      (* 2^128 *)
      "340282366920938463463374607431768211456";
    ]

let test_factorial_50 () =
  (* Independent ground truth for multiplication chains. *)
  let rec fact n = if n = 0 then Nat.one else Nat.mul (Nat.of_int n) (fact (n - 1)) in
  Alcotest.(check string)
    "50!"
    "30414093201713378043612608166064768844377641568960512000000000000"
    (Nat.to_decimal (fact 50))

let test_hex_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_hex (Nat.of_hex s)))
    [ "0"; "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ]

let test_hex_known () =
  Alcotest.(check string) "255" "255" (Nat.to_decimal (Nat.of_hex "FF"));
  Alcotest.(check string) "2^64" "10000000000000000" (Nat.to_hex (Nat.shift_left Nat.one 64));
  Alcotest.(check string) "sep" "deadbeef" (Nat.to_hex (Nat.of_hex "dead_beef"))

let test_bytes_known () =
  Alcotest.check nat "of_bytes" (Nat.of_int 0x0102) (Nat.of_bytes_be "\x01\x02");
  Alcotest.(check string) "to_bytes" "\x01\x02" (Nat.to_bytes_be (Nat.of_int 0x0102));
  Alcotest.(check string) "padded" "\x00\x00\x01\x02"
    (Nat.to_bytes_be ~width:4 (Nat.of_int 0x0102));
  Alcotest.check nat "empty" Nat.zero (Nat.of_bytes_be "");
  Alcotest.(check string) "zero byte" "\x00" (Nat.to_bytes_be Nat.zero)

let prop_bytes_roundtrip =
  qtest "of_bytes_be/to_bytes_be roundtrip" nat_gen nat_print (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_decimal_roundtrip =
  qtest "decimal roundtrip" nat_gen nat_print (fun a ->
      Nat.equal a (Nat.of_decimal (Nat.to_decimal a)))

let prop_hex_roundtrip =
  qtest "hex roundtrip" nat_gen nat_print (fun a -> Nat.equal a (Nat.of_hex (Nat.to_hex a)))

(* ------------------------------------------------------------------ *)
(* Nat: ordering and bits                                              *)
(* ------------------------------------------------------------------ *)

let test_compare_basic () =
  Alcotest.(check bool) "0<1" true (Nat.compare Nat.zero Nat.one < 0);
  Alcotest.(check bool) "2^30-1 < 2^30" true
    (Nat.compare (Nat.of_int 0x3fffffff) (Nat.of_int 0x40000000) < 0);
  Alcotest.(check bool) "eq" true (Nat.equal (Nat.of_int 12345) (Nat.of_int 12345))

let prop_compare_agrees_with_sub =
  qtest "compare consistent with sub" nat_pair nat_pair_print (fun (a, b) ->
      match Nat.compare a b with
      | 0 -> Nat.equal a b
      | c when c < 0 -> Nat.equal (Nat.add a (Nat.sub b a)) b
      | _ -> Nat.equal (Nat.add b (Nat.sub a b)) a)

let test_num_bits () =
  Alcotest.(check int) "0" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "1" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "255" 8 (Nat.num_bits (Nat.of_int 255));
  Alcotest.(check int) "256" 9 (Nat.num_bits (Nat.of_int 256));
  Alcotest.(check int) "2^100" 101 (Nat.num_bits (Nat.shift_left Nat.one 100))

let prop_num_bits_bound =
  qtest "2^(bits-1) <= n < 2^bits" nat_gen nat_print (fun a ->
      Nat.is_zero a
      ||
      let k = Nat.num_bits a in
      Nat.compare a (Nat.shift_left Nat.one k) < 0
      && Nat.compare a (Nat.shift_left Nat.one (k - 1)) >= 0)

let prop_test_bit_matches_shift =
  qtest "test_bit = parity of shift_right"
    QCheck2.Gen.(pair nat_gen (int_range 0 400))
    (fun (a, i) -> nat_print a ^ " bit " ^ string_of_int i)
    (fun (a, i) ->
      Bool.equal (Nat.test_bit a i) (not (Nat.is_even (Nat.shift_right a i))))

let prop_shift_roundtrip =
  qtest "shift left then right"
    QCheck2.Gen.(pair nat_gen (int_range 0 200))
    (fun (a, s) -> nat_print a ^ " << " ^ string_of_int s)
    (fun (a, s) -> Nat.equal a (Nat.shift_right (Nat.shift_left a s) s))

let prop_shift_is_mul_pow2 =
  qtest "shift_left = mul by 2^s"
    QCheck2.Gen.(pair nat_gen (int_range 0 120))
    (fun (a, s) -> nat_print a ^ " << " ^ string_of_int s)
    (fun (a, s) ->
      Nat.equal (Nat.shift_left a s) (Nat.mul a (Nat.pow Nat.two s)))

(* ------------------------------------------------------------------ *)
(* Nat: ring laws                                                      *)
(* ------------------------------------------------------------------ *)

let prop_add_comm =
  qtest "add commutative" nat_pair nat_pair_print (fun (a, b) ->
      Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  qtest "add associative" nat_triple nat_triple_print (fun (a, b, c) ->
      Nat.equal (Nat.add a (Nat.add b c)) (Nat.add (Nat.add a b) c))

let prop_add_sub =
  qtest "(a+b)-b = a" nat_pair nat_pair_print (fun (a, b) ->
      Nat.equal (Nat.sub (Nat.add a b) b) a)

let prop_mul_comm =
  qtest "mul commutative" nat_pair nat_pair_print (fun (a, b) ->
      Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_assoc =
  qtest "mul associative" ~count:120 nat_triple nat_triple_print (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.mul b c)) (Nat.mul (Nat.mul a b) c))

let prop_mul_distrib =
  qtest "mul distributes over add" ~count:120 nat_triple nat_triple_print
    (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_mul_matches_schoolbook =
  (* Large operands so the Karatsuba path actually triggers (threshold is
     32 limbs = 832 bits = 104 bytes). *)
  qtest "karatsuba = schoolbook" ~count:60
    QCheck2.Gen.(pair (gen_nat_bytes 400) (gen_nat_bytes 400))
    nat_pair_print
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul_schoolbook a b))

let prop_sqr =
  qtest "sqr = mul self" nat_gen nat_print (fun a -> Nat.equal (Nat.sqr a) (Nat.mul a a))

let test_pow_small () =
  Alcotest.check nat "3^7" (Nat.of_int 2187) (Nat.pow (Nat.of_int 3) 7);
  Alcotest.check nat "x^0" Nat.one (Nat.pow (Nat.of_int 9999) 0);
  Alcotest.check nat "0^0" Nat.one (Nat.pow Nat.zero 0);
  Alcotest.check nat "0^5" Nat.zero (Nat.pow Nat.zero 5);
  Alcotest.(check string) "2^200"
    (Nat.to_decimal (Nat.shift_left Nat.one 200))
    (Nat.to_decimal (Nat.pow Nat.two 200))

let test_sub_underflow () =
  Alcotest.check_raises "underflow" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub Nat.one Nat.two))

(* ------------------------------------------------------------------ *)
(* Nat: division                                                       *)
(* ------------------------------------------------------------------ *)

let prop_divmod_invariant =
  qtest "a = q*b + r, r < b" ~count:500 nat_pair nat_pair_print (fun (a, b) ->
      if Nat.is_zero b then true
      else begin
        let q, r = Nat.divmod a b in
        Nat.compare r b < 0 && Nat.equal a (Nat.add (Nat.mul q b) r)
      end)

let prop_divmod_matches_binary_oracle =
  qtest "Knuth D = binary long division" ~count:300
    QCheck2.Gen.(pair (gen_nat_bytes 64) (gen_nat_bytes 32))
    nat_pair_print
    (fun (a, b) ->
      if Nat.is_zero b then true
      else begin
        let q, r = Nat.divmod a b in
        let q', r' = Nat.divmod_binary a b in
        Nat.equal q q' && Nat.equal r r'
      end)

let test_divmod_edge_cases () =
  let check_div a b eq er =
    let q, r = Nat.divmod (Nat.of_decimal a) (Nat.of_decimal b) in
    Alcotest.(check string) (a ^ " / " ^ b) eq (Nat.to_decimal q);
    Alcotest.(check string) (a ^ " % " ^ b) er (Nat.to_decimal r)
  in
  check_div "0" "7" "0" "0";
  check_div "6" "7" "0" "6";
  check_div "7" "7" "1" "0";
  check_div "100000000000000000000000000" "3" "33333333333333333333333333" "1";
  (* Divisor exactly a power of the limb base. *)
  check_div "340282366920938463463374607431768211456" "67108864"
    "5070602400912917605986812821504" "0";
  (* Known add-back-provoking shape: dividend just below divisor * base. *)
  check_div "18446744073709551615" "4294967296" "4294967295" "4294967295"

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_divmod_add_back_branch () =
  (* These inputs provoke Algorithm D's rare add-back correction (found
     by directed search; the branch fires with probability ~2^-25 per
     quotient digit on random inputs, so ordinary property tests never
     reach it). Verify the branch executes AND the result is right. *)
  let cases =
    [
      ("10141204499594384811913140764747", "151115727451828713947096");
      ("10141204499594384811913140764748", "151115727451828713947096");
      ("10141204499594384811913140764751", "151115727451828713947096");
    ]
  in
  List.iter
    (fun (u_s, v_s) ->
      let u = Nat.of_decimal u_s and v = Nat.of_decimal v_s in
      let before = !Nat.Internal.add_back_count in
      let q, r = Nat.divmod u v in
      Alcotest.(check bool) ("add-back fired for " ^ u_s) true
        (!Nat.Internal.add_back_count > before);
      let q', r' = Nat.divmod_binary u v in
      Alcotest.check nat "quotient" q' q;
      Alcotest.check nat "remainder" r' r;
      Alcotest.check nat "reconstructs" u (Nat.add (Nat.mul q v) r))
    cases

let prop_gcd =
  qtest "gcd divides both and is maximal-ish" nat_pair nat_pair_print (fun (a, b) ->
      let g = Nat.gcd a b in
      if Nat.is_zero g then Nat.is_zero a && Nat.is_zero b
      else
        Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g)
        && Nat.equal (Nat.gcd (Nat.div a g) (Nat.div b g)) Nat.one)

let test_gcd_known () =
  Alcotest.check nat "gcd(12,18)" (Nat.of_int 6) (Nat.gcd (Nat.of_int 12) (Nat.of_int 18));
  Alcotest.check nat "gcd(0,5)" (Nat.of_int 5) (Nat.gcd Nat.zero (Nat.of_int 5));
  Alcotest.check nat "coprime" Nat.one (Nat.gcd (Nat.of_int 35) (Nat.of_int 64))

(* ------------------------------------------------------------------ *)
(* Cross-validation against an independent implementation              *)
(* ------------------------------------------------------------------ *)

let test_fixtures_mul_div () =
  List.iter
    (fun (a_s, b_s, prod_s, quot_s, rem_s) ->
      let a = Nat.of_decimal a_s and b = Nat.of_decimal b_s in
      Alcotest.(check string) "a*b" prod_s (Nat.to_decimal (Nat.mul a b));
      let q, r = Nat.divmod a b in
      Alcotest.(check string) "a/b" quot_s (Nat.to_decimal q);
      Alcotest.(check string) "a mod b" rem_s (Nat.to_decimal r))
    Bignum_fixtures.mul_div_cases

let test_fixtures_powmod () =
  List.iter
    (fun (b_s, e_s, m_s, exp_s) ->
      let b = Nat.of_decimal b_s and e = Nat.of_decimal e_s and m = Nat.of_decimal m_s in
      Alcotest.(check string) "pow(b,e,m)" exp_s (Nat.to_decimal (Modular.pow b e m)))
    Bignum_fixtures.powmod_cases

let test_fixtures_gcd () =
  List.iter
    (fun (a_s, b_s, g_s) ->
      Alcotest.(check string) "gcd" g_s
        (Nat.to_decimal (Nat.gcd (Nat.of_decimal a_s) (Nat.of_decimal b_s))))
    Bignum_fixtures.gcd_cases

(* ------------------------------------------------------------------ *)
(* Integer                                                             *)
(* ------------------------------------------------------------------ *)

let int_of_pair (s, n) =
  let v = Integer.of_nat n in
  if s then v else Integer.neg v

let gen_integer = QCheck2.Gen.(map int_of_pair (pair bool (gen_nat_bytes 24)))
let integer_print = Integer.to_string

let prop_integer_ring =
  qtest "integer ring laws"
    QCheck2.Gen.(triple gen_integer gen_integer gen_integer)
    (fun (a, b, c) ->
      String.concat ", " [ integer_print a; integer_print b; integer_print c ])
    (fun (a, b, c) ->
      Integer.equal (Integer.add a b) (Integer.add b a)
      && Integer.equal (Integer.mul a (Integer.add b c))
           (Integer.add (Integer.mul a b) (Integer.mul a c))
      && Integer.equal (Integer.sub a a) Integer.zero
      && Integer.equal (Integer.add a (Integer.neg a)) Integer.zero)

let prop_integer_ediv =
  qtest "euclidean division invariant"
    QCheck2.Gen.(pair gen_integer gen_integer)
    (fun (a, b) -> integer_print a ^ ", " ^ integer_print b)
    (fun (a, b) ->
      if Integer.equal b Integer.zero then true
      else begin
        let q, r = Integer.ediv_rem a b in
        Integer.equal a (Integer.add (Integer.mul q b) r)
        && Integer.sign r >= 0
        && Integer.compare r (Integer.abs b) < 0
      end)

let prop_integer_egcd =
  qtest "egcd: a*x + b*y = g = gcd"
    QCheck2.Gen.(pair gen_integer gen_integer)
    (fun (a, b) -> integer_print a ^ ", " ^ integer_print b)
    (fun (a, b) ->
      let g, x, y = Integer.egcd a b in
      Integer.equal (Integer.add (Integer.mul a x) (Integer.mul b y)) g
      && Integer.sign g >= 0
      && Integer.equal (Integer.of_nat (Nat.gcd (Integer.to_nat (Integer.abs a))
                                          (Integer.to_nat (Integer.abs b))))
           g)

let test_integer_signs () =
  let i = Integer.of_int in
  Alcotest.(check string) "-5+3" "-2" (Integer.to_string (Integer.add (i (-5)) (i 3)));
  Alcotest.(check string) "(-5)*(-3)" "15" (Integer.to_string (Integer.mul (i (-5)) (i (-3))));
  let q, r = Integer.ediv_rem (i (-7)) (i 3) in
  Alcotest.(check string) "(-7) ediv 3 q" "-3" (Integer.to_string q);
  Alcotest.(check string) "(-7) ediv 3 r" "2" (Integer.to_string r);
  let q, r = Integer.ediv_rem (i 7) (i (-3)) in
  Alcotest.(check string) "7 ediv -3 q" "-2" (Integer.to_string q);
  Alcotest.(check string) "7 ediv -3 r" "1" (Integer.to_string r)

(* ------------------------------------------------------------------ *)
(* Modular                                                             *)
(* ------------------------------------------------------------------ *)

(* A fixed odd 196-bit modulus for property tests. *)
let test_modulus = Nat.of_decimal "57896044618658097711785492504343953926634992332820282019729"

let gen_mod_elt = QCheck2.Gen.map (fun n -> Nat.rem n test_modulus) (gen_nat_bytes 40)

let prop_mont_pow_matches_binary =
  qtest "Montgomery pow = binary pow" ~count:80
    QCheck2.Gen.(pair gen_mod_elt (gen_nat_bytes 24))
    nat_pair_print
    (fun (b, e) ->
      Nat.equal (Modular.pow b e test_modulus) (Modular.pow_binary b e test_modulus))

let prop_pow_homomorphic =
  qtest "a^(x+y) = a^x * a^y mod m" ~count:60
    QCheck2.Gen.(triple gen_mod_elt (gen_nat_bytes 16) (gen_nat_bytes 16))
    nat_triple_print
    (fun (a, x, y) ->
      let ctx = Modular.Mont.create test_modulus in
      Nat.equal
        (Modular.Mont.pow ctx a (Nat.add x y))
        (Modular.Mont.mul ctx (Modular.Mont.pow ctx a x) (Modular.Mont.pow ctx a y)))

let prop_mont_mul_matches_naive =
  qtest "Mont.mul = naive mod mul" ~count:200
    QCheck2.Gen.(pair gen_mod_elt gen_mod_elt)
    nat_pair_print
    (fun (a, b) ->
      let ctx = Modular.Mont.create test_modulus in
      Nat.equal (Modular.Mont.mul ctx a b) (Modular.mul a b test_modulus))

let prop_pow_tower =
  qtest "(a^x)^y = a^(x*y) mod m" ~count:40
    QCheck2.Gen.(triple gen_mod_elt (gen_nat_bytes 12) (gen_nat_bytes 12))
    nat_triple_print
    (fun (a, x, y) ->
      let ctx = Modular.Mont.create test_modulus in
      Nat.equal
        (Modular.Mont.pow ctx (Modular.Mont.pow ctx a x) y)
        (Modular.Mont.pow ctx a (Nat.mul x y)))

let prop_sqr_matches_mul =
  qtest "Mont.sqr = Mont.mul a a" ~count:200 gen_mod_elt nat_print (fun a ->
      let ctx = Modular.Mont.create test_modulus in
      Nat.equal (Modular.Mont.sqr ctx a) (Modular.Mont.mul ctx a a))

let prop_pow_exp_matches_pow =
  qtest "Mont.pow_exp over precompute_exp = Mont.pow" ~count:80
    QCheck2.Gen.(pair gen_mod_elt (gen_nat_bytes 24))
    nat_pair_print
    (fun (b, e) ->
      let ctx = Modular.Mont.create test_modulus in
      let w = Modular.Mont.precompute_exp e in
      Nat.equal (Modular.Mont.pow_exp ctx b w) (Modular.Mont.pow ctx b e))

let test_pow_exp_corners () =
  let ctx = Modular.Mont.create test_modulus in
  let check name e b =
    Alcotest.check nat name
      (Modular.Mont.pow ctx b e)
      (Modular.Mont.pow_exp ctx b (Modular.Mont.precompute_exp e))
  in
  check "e=0" Nat.zero (Nat.of_int 7);
  check "e=1" Nat.one (Nat.of_int 7);
  check "e=15 (one full window)" (Nat.of_int 15) (Nat.of_int 7);
  check "e=16 (window boundary)" (Nat.of_int 16) (Nat.of_int 7);
  check "b=0" (Nat.of_int 9) Nat.zero

let test_pow_known () =
  let m = Nat.of_int 1000000007 in
  Alcotest.check nat "2^10 mod p" (Nat.of_int 1024) (Modular.pow Nat.two (Nat.of_int 10) m);
  (* Fermat: a^(p-1) = 1 mod p. *)
  Alcotest.check nat "fermat" Nat.one
    (Modular.pow (Nat.of_int 123456789) (Nat.pred m) m);
  Alcotest.check nat "e=0" Nat.one (Modular.pow (Nat.of_int 5) Nat.zero m);
  Alcotest.check nat "b=0" Nat.zero (Modular.pow Nat.zero (Nat.of_int 5) m)

let test_pow_even_modulus () =
  let m = Nat.of_int 100 in
  Alcotest.check nat "7^2 mod 100" (Nat.of_int 49) (Modular.pow (Nat.of_int 7) Nat.two m);
  Alcotest.check nat "7^4 mod 100" (Nat.of_int 1) (Modular.pow (Nat.of_int 7) (Nat.of_int 4) m)

let prop_inverse =
  qtest "a * inv(a) = 1 mod m" ~count:200 gen_mod_elt nat_print (fun a ->
      match Modular.inv a test_modulus with
      | None -> Nat.is_zero a || not (Nat.is_one (Nat.gcd a test_modulus))
      | Some ai -> Nat.is_one (Modular.mul a ai test_modulus))

let test_inverse_none () =
  Alcotest.(check bool) "inv 0" true (Modular.inv Nat.zero (Nat.of_int 7) = None);
  Alcotest.(check bool) "inv 6 mod 9" true (Modular.inv (Nat.of_int 6) (Nat.of_int 9) = None);
  Alcotest.check nat "inv 3 mod 7" (Nat.of_int 5)
    (Modular.inv_exn (Nat.of_int 3) (Nat.of_int 7))

(* ------------------------------------------------------------------ *)
(* Montgomery kernels                                                  *)
(*                                                                     *)
(* Every odd modulus runs on one kernel family (29-bit carry-save      *)
(* limbs, lazy reduction, a dedicated squaring, unrolled at 3 and 9    *)
(* limbs). Every kernel entry point — single pow_exp, pow_batch's      *)
(* interleaved lanes, mul, sqr, sqr_batch — is                         *)
(* pinned to the pow_binary oracle at every width below, across edge   *)
(* exponents and edge bases, and the window loop is asserted           *)
(* allocation-free.                                                    *)
(* ------------------------------------------------------------------ *)

(* The moduli psi runs on (Group's test groups and RFC 3526 groups 5
   and 14), restated here so bignum's tests stay self-contained. *)
let p64 = Nat.of_hex "fc9ef25467313ef3"
let p128 = Nat.of_hex "fc9ef2546731204952720f1668ba8e87"

let p256 =
  Nat.of_hex "fc9ef2546731204952720f1668ba4e40320056f94b2bd0a0b311f3c42da6b03f"

let p1536 =
  Nat.of_hex
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
     EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
     98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
     9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"

let p2048 =
  Nat.of_hex
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
     020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
     4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
     EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
     98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
     9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
     E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
     3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"

let p512 =
  Nat.of_hex
    "fc9ef2546731204952720f1668ba4e40320056f94b2bd0a0b311f3c42da4ef9c\
     019d599aa1ee140096188ba220a3b8b03c983e385ffa254975f393361740f733"

(* 2^k - 1: the largest odd modulus of k bits, so the tightest case for
   the lazy-reduction headroom (4m < 2^(29n)) at its limb count. *)
let all_ones k = Nat.pred (Nat.shift_left Nat.one k)

(* (label, modulus, qcheck count, expected kernel). The kernels run at
   29-bit limbs, n = ceil((bits + 2) / 29). The k-bit all-ones moduli sit
   on limb boundaries: 29/30/31 straddle Nat's own 30-bit limbs; 57 and
   85 bits are the first and last widths on the unrolled 3-limb kernel,
   with 56 and 86 just outside it; 231 and 259 bits are the first and
   last on the unrolled 9-limb kernel, with 230 and 260 just outside it.
   59/60/61/88/89 and 238/239/268/269 bits were the boundaries of the
   earlier 30-bit kernels. *)
let kernel_widths =
  [
    ("m=3", Nat.of_int 3, 30, "mont29x1");
    ("2^29-1", all_ones 29, 30, "mont29x2");
    ("2^30-1", all_ones 30, 30, "mont29x2");
    ("2^31-1", all_ones 31, 30, "mont29x2");
    ("2^56-1", all_ones 56, 30, "mont29x2");
    ("2^57-1", all_ones 57, 30, "mont29x3-unrolled");
    ("2^59-1", all_ones 59, 30, "mont29x3-unrolled");
    ("2^60-1", all_ones 60, 30, "mont29x3-unrolled");
    ("2^61-1", all_ones 61, 30, "mont29x3-unrolled");
    ("test64", p64, 30, "mont29x3-unrolled");
    ("2^85-1", all_ones 85, 30, "mont29x3-unrolled");
    ("2^86-1", all_ones 86, 30, "mont29x4");
    ("2^88-1", all_ones 88, 30, "mont29x4");
    ("2^89-1", all_ones 89, 30, "mont29x4");
    ("test128", p128, 30, "mont29x5");
    ("test_modulus (196-bit)", test_modulus, 30, "mont29x7");
    ("2^230-1", all_ones 230, 20, "mont29x8");
    ("2^231-1", all_ones 231, 20, "mont29x9-unrolled");
    ("2^238-1", all_ones 238, 20, "mont29x9-unrolled");
    ("2^239-1", all_ones 239, 20, "mont29x9-unrolled");
    ("test256", p256, 30, "mont29x9-unrolled");
    ("2^259-1", all_ones 259, 20, "mont29x9-unrolled");
    ("2^260-1", all_ones 260, 20, "mont29x10");
    ("2^268-1", all_ones 268, 20, "mont29x10");
    ("2^269-1", all_ones 269, 20, "mont29x10");
    ("test512", p512, 10, "mont29x18");
    ("modp1536", p1536, 6, "mont29x54");
    ("modp2048", p2048, 6, "mont29x71");
  ]

let test_kernel_selection () =
  List.iter
    (fun (label, m, _, kname) ->
      let ctx = Modular.Mont.create m in
      Alcotest.(check string) label kname (Modular.Mont.kernel_name ctx))
    kernel_widths;
  (* Windows and lanes follow the limb count: 4-bit x 4 lanes at 9 limbs,
     5-bit x 2 lanes at 54 limbs and up. *)
  Alcotest.(check int) "lanes at 9 limbs" 4
    (Modular.Mont.Internal.lanes (Modular.Mont.create p256));
  Alcotest.(check int) "lanes at 54 limbs" 2
    (Modular.Mont.Internal.lanes (Modular.Mont.create p1536))

(* Generator for elements of [0, m): rejection-free via rem. *)
let gen_elt_of m =
  QCheck2.Gen.map (fun n -> Nat.rem n m) (gen_nat_bytes ((Nat.num_bits m + 7) / 8 + 8))

let kernel_parity_props =
  List.concat_map
    (fun (kname, m, count, _) ->
      let ctx = Modular.Mont.create m in
      [
        qtest
          (Printf.sprintf "%s pow_exp = pow_binary" kname)
          ~count
          QCheck2.Gen.(pair (gen_elt_of m) (gen_nat_bytes 32))
          nat_pair_print
          (fun (b, e) ->
            Nat.equal
              (Modular.Mont.pow_exp ctx b (Modular.Mont.precompute_exp e))
              (Modular.pow_binary b e m));
        (* Batch lengths 0..9 cover empty input, partial final blocks and
           several full interleave blocks at every lane width. *)
        qtest
          (Printf.sprintf "%s pow_batch = pow_binary, each lane" kname)
          ~count
          QCheck2.Gen.(
            pair
              (bind (int_range 0 9) (fun n -> list_repeat n (gen_elt_of m)))
              (gen_nat_bytes 32))
          (fun (bs, e) ->
            String.concat ", " (List.map nat_print bs) ^ " ^ " ^ nat_print e)
          (fun (bs, e) ->
            let w = Modular.Mont.precompute_exp e in
            List.for_all2 Nat.equal
              (Modular.Mont.pow_batch ctx bs w)
              (List.map (fun b -> Modular.pow_binary b e m) bs));
        qtest
          (Printf.sprintf "%s mul = naive mod mul" kname)
          ~count
          QCheck2.Gen.(pair (gen_elt_of m) (gen_elt_of m))
          nat_pair_print
          (fun (a, b) -> Nat.equal (Modular.Mont.mul ctx a b) (Modular.mul a b m));
        qtest
          (Printf.sprintf "%s sqr_batch = naive mod mul" kname)
          ~count
          QCheck2.Gen.(bind (int_range 0 9) (fun n -> list_repeat n (gen_elt_of m)))
          (fun xs -> String.concat ", " (List.map nat_print xs))
          (fun xs ->
            List.for_all2 Nat.equal
              (Modular.Mont.sqr_batch ctx xs)
              (List.map (fun x -> Modular.mul x x m) xs));
      ])
    kernel_widths

(* Edge exponents (0, 1, 2, p-2, top-bit-only, all-ones) x edge bases
   (0, 1, m-1, small): the cases that stress window-digit handling (all
   zero digits, all maximal digits), the lazy-reduction bound (m-1 is
   the largest reduced operand) and the Fermat identity. *)
let test_kernel_edges () =
  List.iter
    (fun (kname, m, _, _) ->
      let ctx = Modular.Mont.create m in
      let bits = Nat.num_bits m in
      let exponents =
        [
          ("e=0", Nat.zero);
          ("e=1", Nat.one);
          ("e=2", Nat.two);
          ("e=p-2", Nat.sub m Nat.two);
          ("e=2^(bits-1)", Nat.shift_left Nat.one (bits - 1));
          ("e=all-ones", Nat.pred (Nat.shift_left Nat.one bits));
        ]
      in
      let bases =
        [ Nat.zero; Nat.one; Nat.pred m; Nat.rem (Nat.of_int 0x1234567) m ]
      in
      List.iter
        (fun (ename, e) ->
          let w = Modular.Mont.precompute_exp e in
          List.iter
            (fun b ->
              Alcotest.check nat
                (Printf.sprintf "%s %s b=%s" kname ename (Nat.to_hex b))
                (Modular.pow_binary b e m)
                (Modular.Mont.pow_exp ctx b w))
            bases;
          (* The same edges through the interleaved batch path. *)
          List.iter2 (fun b r ->
              Alcotest.check nat
                (Printf.sprintf "%s %s batch b=%s" kname ename (Nat.to_hex b))
                (Modular.pow_binary b e m) r)
            bases
            (Modular.Mont.pow_batch ctx bases w))
        exponents;
      (* Every ordered pair of edge operands through [Mont.mul]: a single
         product leaves the lazy domain in [0, 2m), so these pin the
         final correction at every width. *)
      let operands =
        bases @ [ Nat.sub m Nat.two; Nat.shift_right m 1; Nat.div m (Nat.of_int 3) ]
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.check nat
                (Printf.sprintf "%s mul %s %s" kname (Nat.to_hex a) (Nat.to_hex b))
                (Modular.mul a b m) (Modular.Mont.mul ctx a b))
            operands;
          Alcotest.check nat
            (Printf.sprintf "%s sqr %s" kname (Nat.to_hex a))
            (Modular.mul a a m) (Modular.Mont.sqr ctx a))
        operands;
      (* Results of every bit length below the modulus's: each one is
         repacked from 29-bit limbs into a Nat of exactly its own limb
         count. *)
      let pow2 k = Nat.shift_left Nat.one k in
      for k = 0 to bits - 2 do
        Alcotest.check nat
          (Printf.sprintf "%s mul to 2^%d" kname k)
          (pow2 k)
          (Modular.Mont.mul ctx (pow2 (k / 2)) (pow2 (k - (k / 2))));
        if k mod 2 = 0 then
          Alcotest.check nat
            (Printf.sprintf "%s sqr to 2^%d" kname k)
            (pow2 k)
            (Modular.Mont.sqr ctx (pow2 (k / 2)))
      done)
    kernel_widths

(* Inside an exponentiation the kernels take lazy operands in [0, 2m),
   which no public entry point passes from outside. At the top modulus
   of each width, 2^(29n-2) - 1 (the largest with 4m < 2^(29n)), and
   with a = b = 2m - 1, the carry-save rows reach their largest
   intermediates. Every product of such operands must stay lazy (< 2m)
   and equal a*b*R^-1 mod m, R = 2^(29n). *)
let test_lazy_operands () =
  let bits = Modular.Mont.Internal.limb_bits in
  List.iter
    (fun n ->
      let m = all_ones ((bits * n) - 2) in
      let ctx = Modular.Mont.create m in
      Alcotest.(check int) (Printf.sprintf "limbs of 2^%d-1" ((bits * n) - 2)) n
        (Modular.Mont.Internal.limbs ctx);
      let r_inv = Modular.inv_exn (Nat.rem (Nat.shift_left Nat.one (bits * n)) m) m in
      let top = Nat.pred (Nat.add m m) in
      let operands = [ top; Nat.pred top; m; Nat.pred m; Nat.one; Nat.zero ] in
      let check what a b r =
        let label = Printf.sprintf "%d limbs %s %s %s" n what (Nat.to_hex a) (Nat.to_hex b) in
        Alcotest.(check bool) (label ^ " < 2m") true (Nat.compare r (Nat.add m m) < 0);
        Alcotest.check nat label
          (Modular.mul (Modular.mul (Nat.rem a m) (Nat.rem b m) m) r_inv m)
          (Nat.rem r m)
      in
      List.iter
        (fun a ->
          List.iter
            (fun b -> check "mul" a b (Modular.Mont.Internal.product ctx `Mul a b))
            operands;
          check "sqr" a a (Modular.Mont.Internal.product ctx `Sqr a Nat.zero))
        operands)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 10; 18; 54; 71 ]

(* The steady-state window loop runs out of the preallocated arena: a
   full multi-lane scan over a maximal exponent must allocate nothing
   on the minor heap. Loading bases and extracting results may allocate
   (they build Nats); only run_windows is pinned. *)
let test_zero_alloc_window_loop () =
  List.iter
    (fun (kname, m, _, _) ->
      let ctx = Modular.Mont.create m in
      let ar = Modular.Mont.Internal.arena ctx in
      let lanes = Modular.Mont.Internal.lanes ctx in
      let w = Modular.Mont.precompute_exp (all_ones (Nat.num_bits m)) in
      for lane = 0 to lanes - 1 do
        Modular.Mont.Internal.load_base ar ~lane (Nat.rem (Nat.of_int (0xbeef + lane)) m)
      done;
      (* Warm once (first call may trigger lazy runtime setup), then
         measure. *)
      Modular.Mont.Internal.run_windows ar ~lanes w;
      let w0 = Gc.minor_words () in
      Modular.Mont.Internal.run_windows ar ~lanes w;
      let allocated = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) (kname ^ " run_windows minor words") 0.0 allocated)
    kernel_widths

(* ------------------------------------------------------------------ *)
(* Prime                                                               *)
(* ------------------------------------------------------------------ *)

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 11; 13; 1009; 104729; 1000000007 ] in
  let composites = [ 0; 1; 4; 6; 9; 15; 1001; 104730; 561; 41041; 825265 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (string_of_int p) true
        (Prime.is_probable_prime ~rng:test_rng (Nat.of_int p)))
    primes;
  (* 561, 41041, 825265 are Carmichael numbers. *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (string_of_int c) false
        (Prime.is_probable_prime ~rng:test_rng (Nat.of_int c)))
    composites

let test_mersenne () =
  (* 2^127 - 1 is prime; 2^128 - 1 is not. *)
  let m127 = Nat.pred (Nat.shift_left Nat.one 127) in
  let m128 = Nat.pred (Nat.shift_left Nat.one 128) in
  Alcotest.(check bool) "M127" true (Prime.is_probable_prime ~rng:test_rng m127);
  Alcotest.(check bool) "2^128-1" false (Prime.is_probable_prime ~rng:test_rng m128)

let test_jacobi_known () =
  let j a n = Prime.jacobi (Nat.of_int a) (Nat.of_int n) in
  (* Legendre symbols mod 7: QRs are 1,2,4. *)
  Alcotest.(check int) "(1/7)" 1 (j 1 7);
  Alcotest.(check int) "(2/7)" 1 (j 2 7);
  Alcotest.(check int) "(3/7)" (-1) (j 3 7);
  Alcotest.(check int) "(4/7)" 1 (j 4 7);
  Alcotest.(check int) "(5/7)" (-1) (j 5 7);
  Alcotest.(check int) "(6/7)" (-1) (j 6 7);
  Alcotest.(check int) "(0/7)" 0 (j 0 7);
  (* Jacobi with composite lower argument. *)
  Alcotest.(check int) "(2/15)" 1 (j 2 15);
  Alcotest.(check int) "(7/15)" (-1) (j 7 15)

let prop_jacobi_is_legendre =
  (* For odd prime p: jacobi a p = a^((p-1)/2) mod p, mapping p-1 -> -1. *)
  let p = Nat.of_int 1000003 in
  qtest "jacobi = euler criterion mod 1000003" ~count:300
    QCheck2.Gen.(int_range 0 999_999)
    string_of_int
    (fun a ->
      let an = Nat.of_int a in
      let e = Modular.pow an (Nat.shift_right (Nat.pred p) 1) p in
      let expected =
        if Nat.is_zero e then 0 else if Nat.is_one e then 1 else -1
      in
      Prime.jacobi an p = expected)

let prop_jacobi_multiplicative =
  qtest "jacobi (ab/n) = (a/n)(b/n)" ~count:300
    QCheck2.Gen.(triple (int_range 0 100000) (int_range 0 100000) (int_range 0 5000))
    (fun (a, b, k) -> Printf.sprintf "%d %d %d" a b k)
    (fun (a, b, k) ->
      let n = (2 * k) + 1 in
      if n < 3 then true
      else begin
        let j x = Prime.jacobi (Nat.of_int x) (Nat.of_int n) in
        j (a * b mod n) = j a * j b
      end)

(* The recursive Jacobi that Prime.jacobi used before the batched
   divsteps: a [Nat.rem] per reciprocity step and one bit shifted out at
   a time. Slow and allocating, but independent of the limb-level code:
   the oracle for it. *)
let jacobi_oracle a n =
  let low3 x =
    (if Nat.test_bit x 2 then 4 else 0)
    lor (if Nat.test_bit x 1 then 2 else 0)
    lor if Nat.test_bit x 0 then 1 else 0
  in
  let rec go a n acc =
    let a = Nat.rem a n in
    if Nat.is_zero a then if Nat.is_one n then acc else 0
    else begin
      let k = ref 0 and a' = ref a in
      while Nat.is_even !a' do
        a' := Nat.shift_right !a' 1;
        incr k
      done;
      let n_mod8 = low3 n in
      let acc = if !k land 1 = 1 && (n_mod8 = 3 || n_mod8 = 5) then -acc else acc in
      let acc =
        if Nat.test_bit !a' 0 && Nat.test_bit !a' 1 && Nat.test_bit n 0 && Nat.test_bit n 1
        then -acc
        else acc
      in
      go n !a' acc
    end
  in
  go a n 1

let named_primes =
  [ ("test64", p64); ("test128", p128); ("test256", p256); ("test512", p512);
    ("modp1536", p1536); ("modp2048", p2048) ]

(* Budgets of 0 and 1 batches hand (almost) everything to the exact
   fallback loop, so it is checked against the oracle too. *)
let check_jacobi label a n =
  let want = jacobi_oracle a n in
  Alcotest.(check int) label want (Prime.jacobi a n);
  List.iter
    (fun b ->
      Alcotest.(check int) (Printf.sprintf "%s, %d batches" label b) want
        (Nat.Internal.jacobi_batched ~max_batches:b a n))
    [ 0; 1 ]

let test_jacobi_named_primes () =
  List.iter
    (fun (name, p) ->
      for i = 1 to 40 do
        check_jacobi (Printf.sprintf "%s #%d" name i) (Nat_rand.below ~rng:test_rng p) p
      done;
      List.iter
        (fun a -> check_jacobi (name ^ " edge") a p)
        [ Nat.zero; Nat.one; Nat.pred p; p; Nat.succ p; Nat.mul p p ])
    named_primes

let test_jacobi_random_moduli () =
  for bits = 2 to 600 do
    let n = Nat.add (Nat.shift_left (Nat_rand.bits_exact ~rng:test_rng bits) 1) Nat.one in
    (* a below n, of n's size, and a >= n by up to twice the size. *)
    List.iter
      (fun abits ->
        check_jacobi
          (Printf.sprintf "%d-bit n, %d-bit a" (bits + 1) abits)
          (Nat_rand.bits ~rng:test_rng abits) n)
      [ bits; bits + 1; 2 * (bits + 1) ]
  done

(* Once a < n the batched loop allocates only its scratch: the same
   number of words for every a of a given modulus. *)
let test_jacobi_constant_alloc () =
  List.iter
    (fun (name, p) ->
      let words a =
        ignore (Prime.jacobi a p);
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Prime.jacobi a p));
        Gc.minor_words () -. w0
      in
      let base = words (Nat_rand.below ~rng:test_rng p) in
      for _ = 1 to 10 do
        Alcotest.(check (float 0.0)) (name ^ " words per call") base
          (words (Nat_rand.below ~rng:test_rng p))
      done)
    named_primes

let test_safe_primes_known () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p) true
        (Prime.is_safe_prime ~rng:test_rng (Nat.of_int p)))
    [ 5; 7; 11; 23; 47; 59; 83; 107; 167; 179; 227; 263; 347; 359 ];
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p) false
        (Prime.is_safe_prime ~rng:test_rng (Nat.of_int p)))
    [ 3; 13; 17; 29; 31; 37; 41; 97; 15 ]

let test_gen_prime () =
  List.iter
    (fun bits ->
      let p = Prime.gen_prime ~rng:test_rng bits in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (Nat.num_bits p);
      Alcotest.(check bool) "prime" true (Prime.is_probable_prime ~rng:test_rng p))
    [ 8; 16; 32; 64; 128 ]

let test_gen_safe_prime () =
  List.iter
    (fun bits ->
      let p = Prime.gen_safe_prime ~rng:test_rng bits in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (Nat.num_bits p);
      Alcotest.(check bool) "safe" true (Prime.is_safe_prime ~rng:test_rng p);
      (* Safe primes > 5 are 3 mod 4 (q odd), which Perfect_cipher relies on. *)
      if Nat.compare p (Nat.of_int 5) > 0 then
        Alcotest.(check bool) "p = 3 mod 4" true
          (Nat.test_bit p 0 && Nat.test_bit p 1))
    [ 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Nat_rand                                                            *)
(* ------------------------------------------------------------------ *)

let test_rand_below () =
  let bound = Nat.of_decimal "123456789123456789" in
  for _ = 1 to 200 do
    let x = Nat_rand.below ~rng:test_rng bound in
    Alcotest.(check bool) "in range" true (Nat.compare x bound < 0)
  done

let test_rand_bits_exact () =
  for _ = 1 to 50 do
    let x = Nat_rand.bits_exact ~rng:test_rng 97 in
    Alcotest.(check int) "exact bits" 97 (Nat.num_bits x)
  done

let test_rand_range () =
  let lo = Nat.of_int 1000 and hi = Nat.of_int 1010 in
  let seen = Array.make 10 false in
  for _ = 1 to 500 do
    let x = Nat_rand.range ~rng:test_rng lo hi in
    let i = Nat.to_int_exn x - 1000 in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 10);
    seen.(i) <- true
  done;
  (* All ten values should appear in 500 draws. *)
  Alcotest.(check bool) "covers range" true (Array.for_all Fun.id seen)

let test_rand_zero_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Nat_rand.below: zero bound")
    (fun () -> ignore (Nat_rand.below ~rng:test_rng Nat.zero))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bignum"
    [
      ( "nat-conversions",
        [
          Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
          Alcotest.test_case "decimal roundtrip (known)" `Quick test_decimal_roundtrip;
          Alcotest.test_case "50! decimal" `Quick test_factorial_50;
          Alcotest.test_case "hex roundtrip (known)" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex known values" `Quick test_hex_known;
          Alcotest.test_case "bytes known values" `Quick test_bytes_known;
          prop_bytes_roundtrip;
          prop_decimal_roundtrip;
          prop_hex_roundtrip;
        ] );
      ( "nat-bits",
        [
          Alcotest.test_case "compare basics" `Quick test_compare_basic;
          Alcotest.test_case "num_bits known" `Quick test_num_bits;
          prop_compare_agrees_with_sub;
          prop_num_bits_bound;
          prop_test_bit_matches_shift;
          prop_shift_roundtrip;
          prop_shift_is_mul_pow2;
        ] );
      ( "nat-ring",
        [
          prop_add_comm;
          prop_add_assoc;
          prop_add_sub;
          prop_mul_comm;
          prop_mul_assoc;
          prop_mul_distrib;
          prop_mul_matches_schoolbook;
          prop_sqr;
          Alcotest.test_case "pow small" `Quick test_pow_small;
          Alcotest.test_case "sub underflow" `Quick test_sub_underflow;
        ] );
      ( "nat-division",
        [
          prop_divmod_invariant;
          prop_divmod_matches_binary_oracle;
          Alcotest.test_case "divmod edge cases" `Quick test_divmod_edge_cases;
          Alcotest.test_case "division by zero" `Quick test_divmod_by_zero;
          Alcotest.test_case "add-back branch" `Quick test_divmod_add_back_branch;
          prop_gcd;
          Alcotest.test_case "gcd known" `Quick test_gcd_known;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "mul/div vs CPython" `Quick test_fixtures_mul_div;
          Alcotest.test_case "powmod vs CPython" `Quick test_fixtures_powmod;
          Alcotest.test_case "gcd vs CPython" `Quick test_fixtures_gcd;
        ] );
      ( "integer",
        [
          prop_integer_ring;
          prop_integer_ediv;
          prop_integer_egcd;
          Alcotest.test_case "sign handling" `Quick test_integer_signs;
        ] );
      ( "modular",
        [
          prop_mont_pow_matches_binary;
          prop_pow_homomorphic;
          prop_mont_mul_matches_naive;
          prop_pow_tower;
          prop_sqr_matches_mul;
          prop_pow_exp_matches_pow;
          Alcotest.test_case "pow_exp corner exponents" `Quick test_pow_exp_corners;
          Alcotest.test_case "pow known values" `Quick test_pow_known;
          Alcotest.test_case "pow even modulus" `Quick test_pow_even_modulus;
          prop_inverse;
          Alcotest.test_case "inverse corner cases" `Quick test_inverse_none;
        ] );
      ( "mont-kernels",
        Alcotest.test_case "kernel selection" `Quick test_kernel_selection
        :: Alcotest.test_case "edge exponents and bases" `Quick test_kernel_edges
        :: Alcotest.test_case "window loop allocates nothing" `Quick
             test_zero_alloc_window_loop
        :: kernel_parity_props
        @ [
            Alcotest.test_case "lazy operands at the top modulus of each width" `Quick
              test_lazy_operands;
          ] );
      ( "prime",
        [
          Alcotest.test_case "small primes & carmichael" `Quick test_small_primes;
          Alcotest.test_case "mersenne 127" `Quick test_mersenne;
          Alcotest.test_case "jacobi known" `Quick test_jacobi_known;
          prop_jacobi_is_legendre;
          prop_jacobi_multiplicative;
          Alcotest.test_case "jacobi = oracle mod named primes" `Quick test_jacobi_named_primes;
          Alcotest.test_case "jacobi = oracle, odd moduli of 3-600 bits" `Quick
            test_jacobi_random_moduli;
          Alcotest.test_case "jacobi allocates a constant" `Quick test_jacobi_constant_alloc;
          Alcotest.test_case "known safe primes" `Quick test_safe_primes_known;
          Alcotest.test_case "gen_prime" `Slow test_gen_prime;
          Alcotest.test_case "gen_safe_prime" `Slow test_gen_safe_prime;
        ] );
      ( "nat-rand",
        [
          Alcotest.test_case "below stays below" `Quick test_rand_below;
          Alcotest.test_case "bits_exact" `Quick test_rand_bits_exact;
          Alcotest.test_case "range covers" `Quick test_rand_range;
          Alcotest.test_case "zero bound" `Quick test_rand_zero_bound;
        ] );
    ]
