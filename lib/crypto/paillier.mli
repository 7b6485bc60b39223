(** The Paillier additively homomorphic cryptosystem, built on
    [Bignum].

    Used by [Psi.Aggregate] to answer the paper's §7 future-work
    question ("can we discover corresponding protocols for other
    database operations such as aggregations?"): ciphertexts of numbers
    can be multiplied to add their plaintexts without decrypting.

    Standard simplified variant: [n = p*q] with [g = n + 1],
    [Enc(m, r) = (1 + m*n) * r^n mod n^2],
    [Dec(c) = L(c^lambda mod n^2) / lambda mod n] where
    [L(x) = (x-1)/n]. *)

type public
type secret

(** [keygen ~rng ~bits] generates a key pair with a [bits]-bit modulus
    ([bits >= 64]; use 1024+ for anything non-test). *)
val keygen : rng:Bignum.Nat_rand.rng -> bits:int -> public * secret

val public_of_secret : secret -> public

(** [modulus pub] is [n]; plaintexts live in [[0, n)]. *)
val modulus : public -> Bignum.Nat.t

(** [encrypt pub ~rng m] encrypts [m < n].
    @raise Invalid_argument if [m >= n]. *)
val encrypt : public -> rng:Bignum.Nat_rand.rng -> Bignum.Nat.t -> Bignum.Nat.t

(** [decrypt sec c] recovers the plaintext. *)
val decrypt : secret -> Bignum.Nat.t -> Bignum.Nat.t

(** [add pub c1 c2] is a ciphertext of [m1 + m2 mod n]. *)
val add : public -> Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t

(** [add_plain pub c m] is a ciphertext of [m1 + m mod n]. *)
val add_plain : public -> Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t

(** [mul_plain pub c k] is a ciphertext of [m1 * k mod n]. *)
val mul_plain : public -> Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t

(** [zero pub ~rng] is a fresh encryption of 0 (useful for blinding /
    re-randomization via {!add}). *)
val zero : public -> rng:Bignum.Nat_rand.rng -> Bignum.Nat.t

(** Fixed-width wire encodings of the public key and ciphertexts. *)
val encode_public : public -> string

(** [decode_public s] parses {!encode_public} output: [Ok pub] when the
    modulus is odd and of 63 to 16384 bits (the least {!keygen} makes,
    and a ceiling on the work a key can ask for), [Error reason]
    otherwise. Total, because [s] usually comes from a peer. *)
val decode_public : string -> (public, string) result

val ciphertext_bytes : public -> int
val encode_ciphertext : public -> Bignum.Nat.t -> string

(** [decode_ciphertext pub s] parses {!encode_ciphertext} output:
    [Ok c] when [s] is {!ciphertext_bytes} wide and [c < n^2],
    [Error reason] otherwise. Total, like {!decode_public}. *)
val decode_ciphertext : public -> string -> (Bignum.Nat.t, string) result
