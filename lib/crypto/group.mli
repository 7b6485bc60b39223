(** The group [QR_p] of quadratic residues modulo a safe prime [p = 2q+1],
    the domain [Dom F] of the paper's commutative encryption (Example 1).

    [QR_p] has prime order [q], every non-identity element generates it,
    and membership is decidable via the Legendre symbol. Safe primes
    satisfy [p = 3 (mod 4)], so exactly one of [x, p-x] is a residue —
    the fact {!Perfect_cipher} uses to encode payloads. *)

type t

(** Group elements are numbers in [[1, p-1]] with Legendre symbol 1.
    The alias is exposed because protocol messages serialize elements. *)
type elt = Bignum.Nat.t

(** [of_prime p] builds the group without verifying that [p] is a safe
    prime (use for the hard-coded named groups, which the test suite
    verifies once).
    @raise Invalid_argument if [p < 7] or [p <> 3 (mod 4)]. *)
val of_prime : Bignum.Nat.t -> t

(** [of_prime_checked ~rng p] additionally runs Miller–Rabin on [p] and
    [(p-1)/2].
    @raise Invalid_argument if [p] is not a safe prime. *)
val of_prime_checked : rng:Bignum.Nat_rand.rng -> Bignum.Nat.t -> t

(** {1 Named groups} *)

type name =
  | Test64  (** 64-bit safe prime — unit tests only *)
  | Test128  (** 128-bit safe prime — unit tests only *)
  | Test256  (** 256-bit safe prime — fast protocol runs *)
  | Test512  (** 512-bit safe prime — medium benches *)
  | Modp1536  (** RFC 3526 group 5; the paper's 1536-bit scale *)
  | Modp2048  (** RFC 3526 group 14 *)

val named : name -> t
val name_to_string : name -> string
val all_names : name list

(** {1 Accessors} *)

val p : t -> Bignum.Nat.t

(** [q g] is the group order [(p-1)/2]. Encryption exponents ([Key F])
    live in [[1, q-1]]. *)
val q : t -> Bignum.Nat.t

val modulus_bits : t -> int

(** [element_bytes g] is the fixed width used to serialize one element
    (the paper's [k] bits is [8 * element_bytes]). *)
val element_bytes : t -> int

(** {1 Operations} *)

(** [is_element g x] tests membership: [1 <= x < p] and Legendre 1
    (computed as a Jacobi symbol). The identity [1] is a member, so it
    passes: membership rules out [0], [p-1] and every other
    non-residue, not degenerate residues. *)
val is_element : t -> Bignum.Nat.t -> bool

val mul : t -> elt -> elt -> elt
val pow : t -> elt -> Bignum.Nat.t -> elt

(** [precompute_exp e] is {!Bignum.Modular.Mont.precompute_exp}: the
    window decomposition of a fixed exponent, computed once per key. *)
val precompute_exp : Bignum.Nat.t -> Bignum.Modular.Mont.exponent

(** [pow_pre g a w] is {!pow} with the exponent's windows precomputed. *)
val pow_pre : t -> elt -> Bignum.Modular.Mont.exponent -> elt

(** [pow_batch g xs w] is [List.map (fun x -> pow_pre g x w) xs], bit
    for bit; the batch shares one scratch arena and a single window
    scan (simultaneous multi-exponentiation). See
    {!Bignum.Modular.Mont.pow_batch}. *)
val pow_batch : t -> elt list -> Bignum.Modular.Mont.exponent -> elt list

(** [sqr_batch g xs] is [List.map (fun x -> mul g x x) xs] with the same
    arena amortization as {!pow_batch}. *)
val sqr_batch : t -> elt list -> elt list

(** The Montgomery kernel plan of this group's context
    ({!Bignum.Modular.Mont.kernel_name}), e.g. ["mont29x3-unrolled"]
    for the 64-bit group, ["mont29x9-unrolled"] for the 256-bit group
    or ["mont29x54"] for MODP-1536. *)
val kernel_name : t -> string

(** [inv_elt g x] is the group inverse of [x]. *)
val inv_elt : t -> elt -> elt

(** [generator g] is a fixed generator of [QR_p] (the residue 4). *)
val generator : t -> elt

(** [random_exponent g ~rng] is uniform in [[1, q-1]] — a fresh secret key
    in the paper's [Key F]. *)
val random_exponent : t -> rng:Bignum.Nat_rand.rng -> Bignum.Nat.t

(** [random_element g ~rng] is a uniform element of [QR_p]. *)
val random_element : t -> rng:Bignum.Nat_rand.rng -> elt

(** {1 Serialization} *)

(** [encode_elt g x] is the fixed-width big-endian encoding of [x]. *)
val encode_elt : t -> elt -> string

(** [decode_elt g s] parses {!encode_elt} output: [Ok x] when [s] is
    {!element_bytes} wide and [1 <= x < p], [Error reason] otherwise.
    Total, because [s] usually comes from a peer. It does not test
    residuosity: {!is_element} does, at the cost of a Jacobi symbol. *)
val decode_elt : t -> string -> (elt, string) result

val equal_elt : elt -> elt -> bool
val compare_elt : elt -> elt -> int
