(** Commutative encryption (Definition 2 of the paper), instantiated as
    the power cipher [f_e(x) = x^e mod p] over [QR_p] (Example 1).

    Properties, each checked by the test suite:
    {ol
    {- commutativity: [f_e (f_e' x) = f_e' (f_e x)];}
    {- each [f_e] is a bijection of [QR_p];}
    {- [f_e] is invertible in polynomial time given [e]
       (via [e^-1 mod q]);}
    {- indistinguishability holds under DDH (not testable, but statistical
       smoke tests are run).}} *)

type key

(** [gen_key g ~rng] draws a secret exponent uniformly from
    [Key F = [1, q-1]] and precomputes its inverse. *)
val gen_key : Group.t -> rng:Bignum.Nat_rand.rng -> key

(** [key_of_exponent g e] builds a key from a fixed exponent (tests and
    reproducible examples).
    @raise Invalid_argument if [e] is outside [[1, q-1]] . *)
val key_of_exponent : Group.t -> Bignum.Nat.t -> key

val exponent : key -> Bignum.Nat.t

(** [fingerprint k] is a stable one-way identifier of the key material:
    128 bits of [SHA-256(p || e)] in hex, computed once at keygen. The
    persistent encrypted-set cache keys entries by it, so cached
    ciphertexts are only ever served back under the exact key that
    produced them; a fresh key misses everything by construction.
    One-way, but stable — reusing a key across runs is linkable through
    it (see the key-policy discussion in docs/PROTOCOLS.md). *)
val fingerprint : key -> string

(** [encrypt g k x] is [x ^ e mod p]. [x] must be in [QR_p]. *)
val encrypt : Group.t -> key -> Group.elt -> Group.elt

(** [decrypt g k y] inverts {!encrypt}: [decrypt g k (encrypt g k x) = x]
    (Property 3). *)
val decrypt : Group.t -> key -> Group.elt -> Group.elt

(** [encrypt_batch ?pool g k xs] is [List.map (encrypt g k) xs], run
    across the pool's worker domains when one is given. Order-preserving
    and pool-size-independent; telemetry counters tally identically to
    the sequential path. *)
val encrypt_batch :
  ?pool:Parallel.Pool.t -> Group.t -> key -> Group.elt list -> Group.elt list

val decrypt_batch :
  ?pool:Parallel.Pool.t -> Group.t -> key -> Group.elt list -> Group.elt list
