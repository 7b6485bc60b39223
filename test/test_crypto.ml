(* Tests for the crypto substrate: SHA-256 against NIST/FIPS vectors,
   HMAC against RFC 4231 vectors, DRBG determinism, the QR group,
   commutative encryption (Definition 2 properties), hash-to-group, and
   both perfect-cipher instantiations. *)

module Nat = Bignum.Nat
module Sha256 = Crypto.Sha256
module Hmac = Crypto.Hmac
module Drbg = Crypto.Drbg
module Group = Crypto.Group
module Hash_to_group = Crypto.Hash_to_group
module Commutative = Crypto.Commutative
module Perfect_cipher = Crypto.Perfect_cipher

let nat = Alcotest.testable Nat.pp Nat.equal

let test_rng : Bignum.Nat_rand.rng =
  let d = Drbg.create ~seed:"test-crypto" in
  Drbg.to_rng d

let g64 = Group.named Group.Test64
let g128 = Group.named Group.Test128
let g256 = Group.named Group.Test256

let qtest name ?(count = 100) gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let gen_string max_len =
  QCheck2.Gen.(
    bind (int_range 0 max_len) (fun n ->
        map (fun l -> String.init n (List.nth l)) (list_repeat n (map Char.chr (int_range 0 255)))))

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha256_nist_vectors () =
  let check msg expected = Alcotest.(check string) "digest" expected (Sha256.hexdigest msg) in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check "The quick brown fox jumps over the lazy dog"
    "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = String.make 10_000 'a' in
  for _ = 1 to 100 do
    Sha256.update ctx chunk
  done;
  let d = Sha256.finalize ctx in
  let hex = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                                (List.init 32 (String.get d))) in
  Alcotest.(check string) "1M a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" hex

let test_sha256_streaming_equals_oneshot () =
  (* Splitting the input at every boundary must not change the digest;
     this exercises the partial-block buffering paths. *)
  let msg = String.init 300 (fun i -> Char.chr (i * 7 mod 256)) in
  let expected = Sha256.digest msg in
  List.iter
    (fun cut ->
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub msg 0 cut);
      Sha256.update ctx (String.sub msg cut (String.length msg - cut));
      Alcotest.(check string) (Printf.sprintf "cut %d" cut) expected (Sha256.finalize ctx))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 200; 300 ]

let test_sha256_length_boundaries () =
  (* Padding boundaries: messages of length 55, 56, 63, 64 bytes. *)
  List.iter
    (fun n ->
      let msg = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) msg;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-by-byte" n)
        (Sha256.hexdigest msg |> String.lowercase_ascii)
        (let d = Sha256.finalize ctx in
         String.concat ""
           (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init 32 (String.get d)))))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120 ]

let test_sha256_finalize_twice () =
  let ctx = Sha256.init () in
  Sha256.update ctx "x";
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "finalize twice" (Invalid_argument "Sha256.finalize: finalized context")
    (fun () -> ignore (Sha256.finalize ctx))

(* One context reused through [reset], finalized or not, gives the
   digest of a fresh one: the hash-to-group expansion hashes every
   block of a chunk in one context. *)
let test_sha256_reset_reuse () =
  let ctx = Sha256.init () in
  Sha256.update ctx "left over, never finalized";
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr (i * 13 mod 256)) in
      Sha256.reset ctx;
      Sha256.update ctx msg;
      Alcotest.(check string) (Printf.sprintf "len %d after reset" n) (Sha256.digest msg)
        (Sha256.finalize ctx))
    [ 0; 3; 55; 56; 64; 119; 200 ]

let prop_digest_concat =
  qtest "digest_concat = digest of concat"
    QCheck2.Gen.(list_size (int_range 0 5) (gen_string 100))
    (fun l -> String.concat "|" (List.map String.escaped l))
    (fun parts -> String.equal (Sha256.digest_concat parts) (Sha256.digest (String.concat "" parts)))

(* ------------------------------------------------------------------ *)
(* HMAC                                                                *)
(* ------------------------------------------------------------------ *)

let test_hmac_rfc4231 () =
  let check ~key data expected = Alcotest.(check string) "hmac" expected (Hmac.hex ~key data) in
  check ~key:(String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check ~key:"Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* Key longer than one block (131 bytes of 0xaa). *)
  check ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let prop_hmac_key_padding_irrelevant =
  qtest "hmac distinct under key tweak" (gen_string 64) String.escaped (fun msg ->
      not (String.equal (Hmac.mac ~key:"k1" msg) (Hmac.mac ~key:"k2" msg)))

(* ------------------------------------------------------------------ *)
(* DRBG                                                                *)
(* ------------------------------------------------------------------ *)

let test_drbg_edge_lengths () =
  let d = Drbg.create ~seed:"edge" in
  Alcotest.(check int) "zero bytes" 0 (String.length (Drbg.generate d 0));
  Alcotest.(check int) "one byte" 1 (String.length (Drbg.generate d 1));
  Alcotest.(check int) "odd size" 100001 (String.length (Drbg.generate d 100001));
  Alcotest.(check bool) "negative raises" true
    (try
       ignore (Drbg.generate d (-1));
       false
     with Invalid_argument _ -> true)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same stream" (Drbg.generate a 100) (Drbg.generate b 100);
  Alcotest.(check string) "continues equal" (Drbg.generate a 37) (Drbg.generate b 37)

let test_drbg_seed_sensitivity () =
  let a = Drbg.create ~seed:"seed-a" and b = Drbg.create ~seed:"seed-b" in
  Alcotest.(check bool) "different" false
    (String.equal (Drbg.generate a 64) (Drbg.generate b 64))

let test_drbg_reseed_changes_stream () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  ignore (Drbg.generate a 16);
  ignore (Drbg.generate b 16);
  Drbg.reseed a ~entropy:"fresh";
  Alcotest.(check bool) "diverged" false
    (String.equal (Drbg.generate a 32) (Drbg.generate b 32))

let test_drbg_split_independent () =
  let parent = Drbg.create ~seed:"s" in
  let c1 = Drbg.split parent ~label:"one" in
  let c2 = Drbg.split parent ~label:"one" in
  (* Two splits consume parent entropy, so even same labels differ. *)
  Alcotest.(check bool) "children differ" false
    (String.equal (Drbg.generate c1 32) (Drbg.generate c2 32))

let test_drbg_fork_non_mutating () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  let _c = Drbg.fork a ~label:"child" in
  (* Unlike [split], forking does not advance the parent stream. *)
  Alcotest.(check string) "parent stream unchanged" (Drbg.generate b 64)
    (Drbg.generate a 64)

let test_drbg_fork_deterministic_and_separated () =
  let mk () = Drbg.create ~seed:"s" in
  let c1 = Drbg.fork (mk ()) ~label:"one" in
  let c2 = Drbg.fork (mk ()) ~label:"one" in
  Alcotest.(check string) "same label, same stream" (Drbg.generate c1 32)
    (Drbg.generate c2 32);
  let d1 = Drbg.fork (mk ()) ~label:"one" in
  let d2 = Drbg.fork (mk ()) ~label:"two" in
  Alcotest.(check bool) "labels separate domains" false
    (String.equal (Drbg.generate d1 32) (Drbg.generate d2 32));
  (* Fork and parent produce unrelated streams. *)
  let p = mk () in
  let c = Drbg.fork p ~label:"one" in
  Alcotest.(check bool) "child differs from parent" false
    (String.equal (Drbg.generate c 32) (Drbg.generate p 32))

let test_drbg_chi_square () =
  (* Chi-square goodness of fit over byte values: 64 KiB of output, 256
     cells, expected 256 per cell. 99.9% critical value for 255 degrees
     of freedom is ~330.5; a correct generator fails this with
     probability 0.1%. Deterministic seed => no flakiness. *)
  let d = Drbg.create ~seed:"chi-square" in
  let s = Drbg.generate d 65536 in
  let counts = Array.make 256 0 in
  String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) s;
  let expected = 65536. /. 256. in
  let chi2 =
    Array.fold_left
      (fun acc n ->
        let d = float_of_int n -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 = %.1f < 330.5" chi2) true (chi2 < 330.5)

let test_drbg_serial_correlation () =
  (* Lag-1 serial correlation of bytes should be near zero. *)
  let d = Drbg.create ~seed:"serial" in
  let s = Drbg.generate d 65536 in
  let n = String.length s - 1 in
  let f i = float_of_int (Char.code s.[i]) in
  let mean = ref 0. in
  String.iter (fun c -> mean := !mean +. float_of_int (Char.code c)) s;
  let mean = !mean /. float_of_int (String.length s) in
  let num = ref 0. and den = ref 0. in
  for i = 0 to n - 1 do
    num := !num +. ((f i -. mean) *. (f (i + 1) -. mean));
    den := !den +. ((f i -. mean) *. (f i -. mean))
  done;
  let rho = !num /. !den in
  Alcotest.(check bool) (Printf.sprintf "lag-1 correlation %.4f" rho) true
    (Float.abs rho < 0.02)

let test_h2g_uniform_top_bits () =
  (* The top 4 bits of h(v) over 2000 values should be ~uniform over the
     16 buckets reachable below p (Test128's top limb starts 0xfc...,
     so all 16 top-nibble values occur). Chi-square, 15 dof, 99.9%
     critical ~37.7. *)
  let counts = Array.make 16 0 in
  let bits = Group.modulus_bits g128 in
  for i = 0 to 1999 do
    let h = Hash_to_group.hash g128 (Printf.sprintf "u%d" i) in
    let nib =
      (if Nat.test_bit h (bits - 1) then 8 else 0)
      lor (if Nat.test_bit h (bits - 2) then 4 else 0)
      lor (if Nat.test_bit h (bits - 3) then 2 else 0)
      lor if Nat.test_bit h (bits - 4) then 1 else 0
    in
    counts.(nib) <- counts.(nib) + 1
  done;
  let expected = 2000. /. 16. in
  let chi2 =
    Array.fold_left
      (fun acc n ->
        let d = float_of_int n -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 = %.1f < 37.7" chi2) true (chi2 < 37.7)

let test_drbg_byte_balance () =
  (* Crude statistical sanity: bit frequency of 64 KiB within 2%. *)
  let d = Drbg.create ~seed:"balance" in
  let s = Drbg.generate d 65536 in
  let ones = ref 0 in
  String.iter
    (fun c ->
      let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
      ones := !ones + popcount (Char.code c))
    s;
  let frac = float_of_int !ones /. float_of_int (8 * 65536) in
  Alcotest.(check bool) (Printf.sprintf "bit balance %.4f" frac) true
    (frac > 0.49 && frac < 0.51)

(* ------------------------------------------------------------------ *)
(* Group                                                               *)
(* ------------------------------------------------------------------ *)

let test_group_accessors () =
  Alcotest.(check int) "test64 bits" 64 (Group.modulus_bits g64);
  Alcotest.(check int) "test64 bytes" 8 (Group.element_bytes g64);
  Alcotest.check nat "q = (p-1)/2" (Group.q g64)
    (Nat.shift_right (Nat.pred (Group.p g64)) 1)

let test_group_generator_is_element () =
  List.iter
    (fun name ->
      let g = Group.named name in
      Alcotest.(check bool)
        (Group.name_to_string name ^ " generator")
        true
        (Group.is_element g (Group.generator g)))
    [ Group.Test64; Group.Test128; Group.Test256; Group.Test512 ]

let test_group_membership () =
  (* 4 = 2^2 is a residue; p-4 is not (p = 3 mod 4 makes -1 a non-residue). *)
  Alcotest.(check bool) "4 in QR" true (Group.is_element g64 (Nat.of_int 4));
  Alcotest.(check bool) "p-4 not in QR" false
    (Group.is_element g64 (Nat.sub (Group.p g64) (Nat.of_int 4)));
  Alcotest.(check bool) "0 not element" false (Group.is_element g64 Nat.zero);
  Alcotest.(check bool) "p not element" false (Group.is_element g64 (Group.p g64))

let test_group_random_element_member () =
  for _ = 1 to 50 do
    let x = Group.random_element g128 ~rng:test_rng in
    Alcotest.(check bool) "member" true (Group.is_element g128 x)
  done

let test_group_mul_closure_and_inverse () =
  for _ = 1 to 30 do
    let x = Group.random_element g128 ~rng:test_rng in
    let y = Group.random_element g128 ~rng:test_rng in
    Alcotest.(check bool) "closed" true (Group.is_element g128 (Group.mul g128 x y));
    Alcotest.check nat "x * x^-1 = 1" Nat.one (Group.mul g128 x (Group.inv_elt g128 x))
  done

let test_group_element_order () =
  (* Every element's order divides q; x^q = 1. *)
  for _ = 1 to 10 do
    let x = Group.random_element g128 ~rng:test_rng in
    Alcotest.check nat "x^q = 1" Nat.one (Group.pow g128 x (Group.q g128))
  done

let test_group_encode_decode () =
  for _ = 1 to 30 do
    let x = Group.random_element g256 ~rng:test_rng in
    let s = Group.encode_elt g256 x in
    Alcotest.(check int) "fixed width" (Group.element_bytes g256) (String.length s);
    Alcotest.check nat "roundtrip" x (Result.get_ok (Group.decode_elt g256 s))
  done;
  (* The decoder is total: what a peer could send is an [Error]. *)
  let bytes = Group.element_bytes g256 in
  let rejects what s =
    Alcotest.(check bool) what true (Result.is_error (Group.decode_elt g256 s))
  in
  rejects "wrong width" "short";
  rejects "zero" (String.make bytes '\x00');
  rejects "p itself" (Group.encode_elt g256 (Group.p g256));
  (* p-1 decodes (it is in range) but is no residue: membership is a
     separate test. *)
  let p_minus_1 = Result.get_ok (Group.decode_elt g256 (Group.encode_elt g256 (Nat.sub (Group.p g256) Nat.one))) in
  Alcotest.(check bool) "p-1 outside QR_p" false (Group.is_element g256 p_minus_1);
  Alcotest.(check bool) "1 is the identity" true (Group.is_element g256 Nat.one)

let test_group_of_prime_rejects () =
  Alcotest.check_raises "too small" (Invalid_argument "Group.of_prime: p too small")
    (fun () -> ignore (Group.of_prime (Nat.of_int 5)));
  (* 13 = 1 mod 4 *)
  Alcotest.check_raises "1 mod 4" (Invalid_argument "Group.of_prime: p must be 3 mod 4")
    (fun () -> ignore (Group.of_prime (Nat.of_int 13)));
  Alcotest.check_raises "not safe" (Invalid_argument "Group.of_prime_checked: not a safe prime")
    (fun () -> ignore (Group.of_prime_checked ~rng:test_rng (Nat.of_int 19)))

let test_group_checked_accepts () =
  let g = Group.of_prime_checked ~rng:test_rng (Nat.of_int 23) in
  Alcotest.check nat "q=11" (Nat.of_int 11) (Group.q g)

(* ------------------------------------------------------------------ *)
(* Commutative encryption: Definition 2                                *)
(* ------------------------------------------------------------------ *)

let test_commutativity () =
  (* Property 1: f_e . f_e' = f_e' . f_e, on many random elements. *)
  for _ = 1 to 25 do
    let e1 = Commutative.gen_key g128 ~rng:test_rng in
    let e2 = Commutative.gen_key g128 ~rng:test_rng in
    let x = Group.random_element g128 ~rng:test_rng in
    Alcotest.check nat "commute"
      (Commutative.encrypt g128 e1 (Commutative.encrypt g128 e2 x))
      (Commutative.encrypt g128 e2 (Commutative.encrypt g128 e1 x))
  done

let test_encrypt_decrypt () =
  (* Properties 2-3: bijectivity via exact inversion. *)
  for _ = 1 to 25 do
    let k = Commutative.gen_key g128 ~rng:test_rng in
    let x = Group.random_element g128 ~rng:test_rng in
    Alcotest.check nat "decrypt . encrypt = id" x
      (Commutative.decrypt g128 k (Commutative.encrypt g128 k x));
    Alcotest.check nat "encrypt . decrypt = id" x
      (Commutative.encrypt g128 k (Commutative.decrypt g128 k x))
  done

let test_encrypt_stays_in_group () =
  for _ = 1 to 25 do
    let k = Commutative.gen_key g128 ~rng:test_rng in
    let x = Group.random_element g128 ~rng:test_rng in
    Alcotest.(check bool) "in group" true (Group.is_element g128 (Commutative.encrypt g128 k x))
  done

let test_encrypt_injective_sample () =
  (* Distinct inputs map to distinct ciphertexts under one key. *)
  let k = Commutative.gen_key g256 ~rng:test_rng in
  let n = 200 in
  let seen = Hashtbl.create n in
  for i = 0 to n - 1 do
    let x = Hash_to_group.hash g256 (string_of_int i) in
    let c = Group.encode_elt g256 (Commutative.encrypt g256 k x) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen c);
    Hashtbl.add seen c ()
  done

let test_key_of_exponent_validation () =
  Alcotest.check_raises "zero exponent"
    (Invalid_argument "Commutative.key_of_exponent: exponent outside [1, q-1]") (fun () ->
      ignore (Commutative.key_of_exponent g64 Nat.zero));
  Alcotest.check_raises "exponent = q"
    (Invalid_argument "Commutative.key_of_exponent: exponent outside [1, q-1]") (fun () ->
      ignore (Commutative.key_of_exponent g64 (Group.q g64)))

let test_double_encryption_decodes_in_any_order () =
  (* The protocols rely on applying/removing layers in either order. *)
  for _ = 1 to 10 do
    let e1 = Commutative.gen_key g128 ~rng:test_rng in
    let e2 = Commutative.gen_key g128 ~rng:test_rng in
    let x = Group.random_element g128 ~rng:test_rng in
    let c = Commutative.encrypt g128 e1 (Commutative.encrypt g128 e2 x) in
    Alcotest.check nat "peel e1 then e2" x
      (Commutative.decrypt g128 e2 (Commutative.decrypt g128 e1 c));
    Alcotest.check nat "peel e2 then e1" x
      (Commutative.decrypt g128 e1 (Commutative.decrypt g128 e2 c))
  done

(* ------------------------------------------------------------------ *)
(* Hash to group                                                       *)
(* ------------------------------------------------------------------ *)

let test_h2g_membership () =
  List.iter
    (fun v ->
      Alcotest.(check bool) ("member: " ^ v) true
        (Group.is_element g128 (Hash_to_group.hash g128 v)))
    [ ""; "a"; "hello"; String.make 1000 'z' ]

let test_h2g_deterministic () =
  Alcotest.check nat "same input same hash" (Hash_to_group.hash g128 "v")
    (Hash_to_group.hash g128 "v")

let test_h2g_distinct () =
  let n = 500 in
  let seen = Hashtbl.create n in
  for i = 0 to n - 1 do
    let h = Nat.to_hex (Hash_to_group.hash g128 (string_of_int i)) in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen h);
    Hashtbl.add seen h ()
  done

let test_h2g_domain_separation () =
  Alcotest.(check bool) "domains differ" false
    (Nat.equal
       (Hash_to_group.hash_value g128 ~domain:"a" "v")
       (Hash_to_group.hash_value g128 ~domain:"b" "v"))

(* ------------------------------------------------------------------ *)
(* Batch crypto over the domain pool                                   *)
(* ------------------------------------------------------------------ *)

(* [~force:true] spawns real worker domains even on one core, so these
   parity checks exercise actual cross-domain use of the shared
   Montgomery context and hash machinery. *)
let with_forced_pool size f =
  let p = Parallel.Pool.create ~force:true size in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

let test_batch_encrypt_parity () =
  let key = Commutative.gen_key g256 ~rng:test_rng in
  let xs = List.init 100 (fun i -> Hash_to_group.hash g256 (string_of_int i)) in
  let expected = List.map (Commutative.encrypt g256 key) xs in
  Alcotest.(check bool) "no pool = sequential" true
    (List.equal Nat.equal expected (Commutative.encrypt_batch g256 key xs));
  List.iter
    (fun size ->
      with_forced_pool size (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "encrypt_batch pool=%d" size)
            true
            (List.equal Nat.equal expected
               (Commutative.encrypt_batch ~pool g256 key xs));
          Alcotest.(check bool)
            (Printf.sprintf "decrypt_batch pool=%d roundtrips" size)
            true
            (List.equal Nat.equal xs
               (Commutative.decrypt_batch ~pool g256 key expected))))
    [ 1; 2; 4 ]

let test_batch_hash_parity () =
  let vs = List.init 100 string_of_int in
  let expected = List.map (Hash_to_group.hash_value g256 ~domain:"batch") vs in
  List.iter
    (fun size ->
      with_forced_pool size (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "hash_batch pool=%d" size)
            true
            (List.equal Nat.equal expected
               (Hash_to_group.hash_batch ~pool g256 ~domain:"batch" vs))))
    [ 1; 2; 4 ]

(* No membership test runs on the hash path: a nonzero square is in
   QR_p by construction. This pins it: every output of every entry
   point, pooled or not, is an element of all six named groups. *)
let prop_h2g_outputs_are_elements =
  qtest "hash outputs are group elements in every named group" ~count:15
    QCheck2.Gen.(list_size (int_range 1 6) (string_size (int_range 0 40)))
    QCheck2.Print.(list string)
    (fun vs ->
      with_forced_pool 2 (fun pool ->
          List.for_all
            (fun name ->
              let g = Group.named name in
              let all = List.for_all (Group.is_element g) in
              all (List.map (Hash_to_group.hash g) vs)
              && all (List.map (Hash_to_group.hash_value g ~domain:"prop") vs)
              && all (Hash_to_group.hash_batch g ~domain:"prop" vs)
              && all (Hash_to_group.hash_batch ~pool g ~domain:"prop" vs))
            Group.all_names))

(* ------------------------------------------------------------------ *)
(* Perfect cipher                                                      *)
(* ------------------------------------------------------------------ *)

let test_mul_cipher_roundtrip () =
  List.iter
    (fun payload ->
      let key = Group.random_element g256 ~rng:test_rng in
      let c = Perfect_cipher.Mul.encrypt g256 ~key payload in
      Alcotest.(check string) ("roundtrip: " ^ String.escaped payload) payload
        (Perfect_cipher.Mul.decrypt g256 ~key c))
    [ ""; "x"; "\x00\x00"; "hello world"; String.make 28 '\xff'; "\x00beef\x00" ]

let test_mul_cipher_max_payload () =
  let maxp = Perfect_cipher.Mul.max_payload g256 in
  Alcotest.(check int) "max payload for 256-bit group" 30 maxp;
  let payload = String.make maxp 'q' in
  let key = Group.random_element g256 ~rng:test_rng in
  Alcotest.(check string) "max-length roundtrip" payload
    (Perfect_cipher.Mul.decrypt g256 ~key (Perfect_cipher.Mul.encrypt g256 ~key payload));
  Alcotest.check_raises "too long" (Invalid_argument "Perfect_cipher.Mul.encode: payload too long")
    (fun () -> ignore (Perfect_cipher.Mul.encode g256 (String.make (maxp + 1) 'q')))

let test_mul_cipher_encoding_is_residue () =
  for i = 0 to 50 do
    let e = Perfect_cipher.Mul.encode g256 (string_of_int i) in
    Alcotest.(check bool) "encoded value is a residue" true (Group.is_element g256 e)
  done

let test_mul_cipher_wrong_key_garbles () =
  let k1 = Group.random_element g256 ~rng:test_rng in
  let k2 = Group.random_element g256 ~rng:test_rng in
  let c = Perfect_cipher.Mul.encrypt g256 ~key:k1 "secret" in
  let garbled = try Perfect_cipher.Mul.decrypt g256 ~key:k2 c with Invalid_argument _ -> "<reject>" in
  Alcotest.(check bool) "wrong key does not decrypt" false (String.equal garbled "secret")

let test_stream_cipher_roundtrip () =
  List.iter
    (fun payload ->
      let key = Group.random_element g128 ~rng:test_rng in
      let c = Perfect_cipher.Stream.encrypt g128 ~key payload in
      Alcotest.(check int) "length preserved" (String.length payload) (String.length c);
      Alcotest.(check string) "roundtrip" payload (Perfect_cipher.Stream.decrypt g128 ~key c))
    [ ""; "x"; "a longer record with several fields|42|true"; String.make 10_000 'r' ]

let test_stream_cipher_key_sensitivity () =
  let k1 = Group.random_element g128 ~rng:test_rng in
  let k2 = Group.random_element g128 ~rng:test_rng in
  let c1 = Perfect_cipher.Stream.encrypt g128 ~key:k1 "payload-payload" in
  let c2 = Perfect_cipher.Stream.encrypt g128 ~key:k2 "payload-payload" in
  Alcotest.(check bool) "different keys, different ciphertexts" false (String.equal c1 c2)

let prop_stream_involutive =
  qtest "stream cipher is involutive" (gen_string 200) String.escaped (fun payload ->
      let key = Group.random_element g64 ~rng:test_rng in
      String.equal payload
        (Perfect_cipher.Stream.encrypt g64 ~key (Perfect_cipher.Stream.encrypt g64 ~key payload)))

(* ------------------------------------------------------------------ *)
(* Paillier                                                            *)
(* ------------------------------------------------------------------ *)

module Paillier = Crypto.Paillier

let pail_pub, pail_sec = Paillier.keygen ~rng:test_rng ~bits:128

let test_paillier_roundtrip () =
  List.iter
    (fun m ->
      let m = Nat.of_int m in
      let c = Paillier.encrypt pail_pub ~rng:test_rng m in
      Alcotest.check nat "dec . enc = id" m (Paillier.decrypt pail_sec c))
    [ 0; 1; 42; 1_000_000; max_int / 4 ]

let test_paillier_randomized_ciphertexts () =
  let m = Nat.of_int 7 in
  let c1 = Paillier.encrypt pail_pub ~rng:test_rng m in
  let c2 = Paillier.encrypt pail_pub ~rng:test_rng m in
  Alcotest.(check bool) "probabilistic encryption" false (Nat.equal c1 c2);
  Alcotest.check nat "both decrypt" (Paillier.decrypt pail_sec c1) (Paillier.decrypt pail_sec c2)

let test_paillier_homomorphic_add () =
  let enc m = Paillier.encrypt pail_pub ~rng:test_rng (Nat.of_int m) in
  let c = Paillier.add pail_pub (enc 1234) (enc 8766) in
  Alcotest.check nat "1234 + 8766" (Nat.of_int 10000) (Paillier.decrypt pail_sec c);
  let c = Paillier.add_plain pail_pub (enc 50) (Nat.of_int 8) in
  Alcotest.check nat "add_plain" (Nat.of_int 58) (Paillier.decrypt pail_sec c);
  let c = Paillier.mul_plain pail_pub (enc 6) (Nat.of_int 7) in
  Alcotest.check nat "mul_plain" (Nat.of_int 42) (Paillier.decrypt pail_sec c);
  let c = Paillier.add pail_pub (enc 5) (Paillier.zero pail_pub ~rng:test_rng) in
  Alcotest.check nat "zero is neutral" (Nat.of_int 5) (Paillier.decrypt pail_sec c)

let test_paillier_sum_chain () =
  let xs = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let acc =
    List.fold_left
      (fun acc x -> Paillier.add pail_pub acc (Paillier.encrypt pail_pub ~rng:test_rng (Nat.of_int x)))
      (Paillier.zero pail_pub ~rng:test_rng)
      xs
  in
  Alcotest.check nat "chain sums" (Nat.of_int (List.fold_left ( + ) 0 xs))
    (Paillier.decrypt pail_sec acc)

let test_paillier_modular_wraparound () =
  (* m1 + m2 is reduced mod n. *)
  let n = Paillier.modulus pail_pub in
  let big = Nat.pred n in
  let c =
    Paillier.add pail_pub
      (Paillier.encrypt pail_pub ~rng:test_rng big)
      (Paillier.encrypt pail_pub ~rng:test_rng (Nat.of_int 5))
  in
  Alcotest.check nat "wraps mod n" (Nat.of_int 4) (Paillier.decrypt pail_sec c)

let ok_or_fail = function Ok x -> x | Error e -> Alcotest.fail e

let test_paillier_wire () =
  let pub2 = ok_or_fail (Paillier.decode_public (Paillier.encode_public pail_pub)) in
  Alcotest.check nat "public key roundtrip" (Paillier.modulus pail_pub) (Paillier.modulus pub2);
  let c = Paillier.encrypt pail_pub ~rng:test_rng (Nat.of_int 99) in
  let s = Paillier.encode_ciphertext pail_pub c in
  Alcotest.(check int) "fixed width" (Paillier.ciphertext_bytes pail_pub) (String.length s);
  Alcotest.check nat "ciphertext roundtrip" c
    (ok_or_fail (Paillier.decode_ciphertext pail_pub s));
  (* A ciphertext encrypted under the decoded key decrypts fine. *)
  let c2 = Paillier.encrypt pub2 ~rng:test_rng (Nat.of_int 123) in
  Alcotest.check nat "cross-key" (Nat.of_int 123) (Paillier.decrypt pail_sec c2)

let test_paillier_validation () =
  Alcotest.(check bool) "plaintext >= n rejected" true
    (try
       ignore (Paillier.encrypt pail_pub ~rng:test_rng (Paillier.modulus pail_pub));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tiny keys rejected" true
    (try
       ignore (Paillier.keygen ~rng:test_rng ~bits:32);
       false
     with Invalid_argument _ -> true)

(* The decoders read peer bytes, so they answer every input with a
   result and never raise. *)
let test_paillier_decoders_total () =
  let rejects name = function
    | Error e -> Alcotest.(check bool) (name ^ ": " ^ e) true (String.length e > 0)
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  let key_of n = Nat.to_bytes_be n in
  let pow2 k = Nat.shift_left Nat.one k in
  rejects "empty key" (Paillier.decode_public "");
  rejects "n = 2" (Paillier.decode_public "\x02");
  rejects "even 64-bit n" (Paillier.decode_public (key_of (Nat.pred (pow2 64) |> Nat.pred)));
  rejects "odd 62-bit n" (Paillier.decode_public (key_of (Nat.pred (pow2 62))));
  rejects "odd 16385-bit n" (Paillier.decode_public (key_of (Nat.succ (pow2 16384))));
  let small, _ = Paillier.keygen ~rng:test_rng ~bits:64 in
  ignore (ok_or_fail (Paillier.decode_public (Paillier.encode_public small)));
  let width = Paillier.ciphertext_bytes pail_pub in
  let n_sq = Nat.mul (Paillier.modulus pail_pub) (Paillier.modulus pail_pub) in
  rejects "short ciphertext" (Paillier.decode_ciphertext pail_pub (String.make (width - 1) '\x01'));
  rejects "long ciphertext" (Paillier.decode_ciphertext pail_pub (String.make (width + 1) '\x01'));
  rejects "ciphertext = n^2"
    (Paillier.decode_ciphertext pail_pub (Nat.to_bytes_be ~width n_sq))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_nist_vectors;
          Alcotest.test_case "one million a's" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming = one-shot" `Quick test_sha256_streaming_equals_oneshot;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_length_boundaries;
          Alcotest.test_case "finalize twice rejected" `Quick test_sha256_finalize_twice;
          prop_digest_concat;
          Alcotest.test_case "reset reuses a context" `Quick test_sha256_reset_reuse;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          prop_hmac_key_padding_irrelevant;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "edge lengths" `Quick test_drbg_edge_lengths;
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_drbg_seed_sensitivity;
          Alcotest.test_case "reseed diverges" `Quick test_drbg_reseed_changes_stream;
          Alcotest.test_case "split independence" `Quick test_drbg_split_independent;
          Alcotest.test_case "fork leaves parent intact" `Quick test_drbg_fork_non_mutating;
          Alcotest.test_case "fork deterministic + domain-separated" `Quick
            test_drbg_fork_deterministic_and_separated;
          Alcotest.test_case "bit balance" `Quick test_drbg_byte_balance;
          Alcotest.test_case "chi-square byte distribution" `Quick test_drbg_chi_square;
          Alcotest.test_case "serial correlation" `Quick test_drbg_serial_correlation;
        ] );
      ( "group",
        [
          Alcotest.test_case "accessors" `Quick test_group_accessors;
          Alcotest.test_case "generator membership" `Quick test_group_generator_is_element;
          Alcotest.test_case "membership test" `Quick test_group_membership;
          Alcotest.test_case "random elements are members" `Quick test_group_random_element_member;
          Alcotest.test_case "closure and inverses" `Quick test_group_mul_closure_and_inverse;
          Alcotest.test_case "element order divides q" `Quick test_group_element_order;
          Alcotest.test_case "encode/decode" `Quick test_group_encode_decode;
          Alcotest.test_case "of_prime validation" `Quick test_group_of_prime_rejects;
          Alcotest.test_case "of_prime_checked accepts 23" `Quick test_group_checked_accepts;
        ] );
      ( "commutative",
        [
          Alcotest.test_case "property 1: commutativity" `Quick test_commutativity;
          Alcotest.test_case "properties 2-3: bijection/inverse" `Quick test_encrypt_decrypt;
          Alcotest.test_case "closure" `Quick test_encrypt_stays_in_group;
          Alcotest.test_case "injectivity sample" `Quick test_encrypt_injective_sample;
          Alcotest.test_case "key validation" `Quick test_key_of_exponent_validation;
          Alcotest.test_case "double-layer peeling" `Quick test_double_encryption_decodes_in_any_order;
        ] );
      ( "batch",
        [
          Alcotest.test_case "encrypt/decrypt parity across pool sizes" `Quick
            test_batch_encrypt_parity;
          Alcotest.test_case "hash parity across pool sizes" `Quick test_batch_hash_parity;
        ] );
      ( "hash-to-group",
        [
          Alcotest.test_case "membership" `Quick test_h2g_membership;
          Alcotest.test_case "deterministic" `Quick test_h2g_deterministic;
          Alcotest.test_case "distinctness over 500 values" `Quick test_h2g_distinct;
          Alcotest.test_case "domain separation" `Quick test_h2g_domain_separation;
          Alcotest.test_case "top-bit uniformity (chi-square)" `Quick test_h2g_uniform_top_bits;
          prop_h2g_outputs_are_elements;
        ] );
      ( "paillier",
        [
          Alcotest.test_case "encrypt/decrypt roundtrip" `Quick test_paillier_roundtrip;
          Alcotest.test_case "probabilistic" `Quick test_paillier_randomized_ciphertexts;
          Alcotest.test_case "homomorphic operations" `Quick test_paillier_homomorphic_add;
          Alcotest.test_case "sum chain" `Quick test_paillier_sum_chain;
          Alcotest.test_case "wraps mod n" `Quick test_paillier_modular_wraparound;
          Alcotest.test_case "wire encodings" `Quick test_paillier_wire;
          Alcotest.test_case "validation" `Quick test_paillier_validation;
          Alcotest.test_case "decoders are total" `Quick test_paillier_decoders_total;
        ] );
      ( "perfect-cipher",
        [
          Alcotest.test_case "mul: roundtrip" `Quick test_mul_cipher_roundtrip;
          Alcotest.test_case "mul: max payload" `Quick test_mul_cipher_max_payload;
          Alcotest.test_case "mul: encoding lands in QR" `Quick test_mul_cipher_encoding_is_residue;
          Alcotest.test_case "mul: wrong key fails" `Quick test_mul_cipher_wrong_key_garbles;
          Alcotest.test_case "stream: roundtrip" `Quick test_stream_cipher_roundtrip;
          Alcotest.test_case "stream: key sensitivity" `Quick test_stream_cipher_key_sensitivity;
          prop_stream_involutive;
        ] );
    ]
