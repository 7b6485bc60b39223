module Nat = Bignum.Nat
module Modular = Bignum.Modular
module Prime = Bignum.Prime
module Nat_rand = Bignum.Nat_rand

type elt = Nat.t

type t = {
  p : Nat.t;
  q : Nat.t;
  ctx : Modular.Mont.ctx;
  bytes : int;
}

let of_prime p =
  if Nat.compare p (Nat.of_int 7) < 0 then invalid_arg "Group.of_prime: p too small"
  else if not (Nat.test_bit p 0 && Nat.test_bit p 1) then
    invalid_arg "Group.of_prime: p must be 3 mod 4"
  else begin
    let q = Nat.shift_right (Nat.pred p) 1 in
    { p; q; ctx = Modular.Mont.create p; bytes = (Nat.num_bits p + 7) / 8 }
  end

let of_prime_checked ~rng p =
  if not (Prime.is_safe_prime ~rng p) then
    invalid_arg "Group.of_prime_checked: not a safe prime"
  else of_prime p

(* ------------------------------------------------------------------ *)
(* Named groups.                                                       *)
(* The Test* primes were generated once with [Prime.gen_safe_prime] from
   this repository and are re-verified by the test suite; the Modp*
   primes are RFC 3526 groups 5 and 14 (also re-verified). *)
(* ------------------------------------------------------------------ *)

type name = Test64 | Test128 | Test256 | Test512 | Modp1536 | Modp2048

let name_to_string = function
  | Test64 -> "test64"
  | Test128 -> "test128"
  | Test256 -> "test256"
  | Test512 -> "test512"
  | Modp1536 -> "modp1536"
  | Modp2048 -> "modp2048"

let all_names = [ Test64; Test128; Test256; Test512; Modp1536; Modp2048 ]

(* Generated with: dune exec bin/gen_group.exe -- gen <bits> (seed
   "psi-group-params"). *)
let test64_hex = "fc9ef25467313ef3"
let test128_hex = "fc9ef2546731204952720f1668ba8e87"
let test256_hex = "fc9ef2546731204952720f1668ba4e40320056f94b2bd0a0b311f3c42da6b03f"

let test512_hex =
  "fc9ef2546731204952720f1668ba4e40320056f94b2bd0a0b311f3c42da4ef9c\
   019d599aa1ee140096188ba220a3b8b03c983e385ffa254975f393361740f733"

let modp1536_hex =
  "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
   020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
   4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
   EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
   98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
   9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"

let modp2048_hex =
  "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
   020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
   4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
   EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
   98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
   9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
   E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
   3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"

let named_cache : (name, t) Hashtbl.t = Hashtbl.create 8

let named n =
  match Hashtbl.find_opt named_cache n with
  | Some g -> g
  | None ->
      let hex =
        match n with
        | Test64 -> test64_hex
        | Test128 -> test128_hex
        | Test256 -> test256_hex
        | Test512 -> test512_hex
        | Modp1536 -> modp1536_hex
        | Modp2048 -> modp2048_hex
      in
      let g = of_prime (Nat.of_hex hex) in
      Hashtbl.add named_cache n g;
      g

(* ------------------------------------------------------------------ *)

let p g = g.p
let q g = g.q
let modulus_bits g = Nat.num_bits g.p
let element_bytes g = g.bytes
let is_element g x = not (Nat.is_zero x) && Nat.compare x g.p < 0 && Prime.jacobi x g.p = 1
let mul g a b = Modular.Mont.mul g.ctx a b
let pow g a e = Modular.Mont.pow g.ctx a e
let precompute_exp = Modular.Mont.precompute_exp
let pow_pre g a w = Modular.Mont.pow_exp g.ctx a w
let pow_batch g xs w = Modular.Mont.pow_batch g.ctx xs w
let sqr_batch g xs = Modular.Mont.sqr_batch g.ctx xs
let kernel_name g = Modular.Mont.kernel_name g.ctx
let inv_elt g a = Bignum.Modular.inv_exn a g.p
let generator _g = Nat.of_int 4

let random_exponent g ~rng = Nat_rand.range ~rng Nat.one g.q

let random_element g ~rng =
  (* 4^r for r uniform in [0, q) is uniform over all of QR_p. *)
  pow g (generator g) (Nat_rand.below ~rng g.q)

let encode_elt g x = Nat.to_bytes_be ~width:g.bytes x

let decode_elt g s =
  if String.length s <> g.bytes then
    Error (Printf.sprintf "element of %d bytes, expected %d" (String.length s) g.bytes)
  else begin
    let x = Nat.of_bytes_be s in
    if Nat.is_zero x || Nat.compare x g.p >= 0 then Error "element out of range [1, p-1]"
    else Ok x
  end

let equal_elt = Nat.equal
let compare_elt = Nat.compare
