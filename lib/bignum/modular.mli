(** Modular arithmetic over {!Nat}, including Montgomery exponentiation.

    The commutative encryption of Agrawal et al. is the power cipher
    [x^e mod p] over quadratic residues modulo a safe prime; this module
    provides the exponentiation kernel (the paper's dominant cost [Ce]). *)

(** [add a b m], [sub a b m], [mul a b m] reduce their result modulo [m].
    Arguments must already be in [[0, m)]. *)
val add : Nat.t -> Nat.t -> Nat.t -> Nat.t

val sub : Nat.t -> Nat.t -> Nat.t -> Nat.t
val mul : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** [pow_binary b e m] is [b^e mod m] by plain square-and-multiply with a
    division-based reduction after every step. Exposed for the
    Montgomery-vs-binary ablation bench and as a testing oracle. *)
val pow_binary : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** [pow b e m] is [b^e mod m]. Uses Montgomery exponentiation
    ({!Mont}) when [m] is odd, falling back to {!pow_binary} for even
    moduli.
    @raise Division_by_zero if [m] is zero. *)
val pow : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** [inv a m] is the multiplicative inverse of [a] modulo [m], when
    [gcd(a, m) = 1]. *)
val inv : Nat.t -> Nat.t -> Nat.t option

(** [inv_exn a m] is {!inv}, raising on non-invertible input.
    @raise Invalid_argument if [gcd(a, m) <> 1]. *)
val inv_exn : Nat.t -> Nat.t -> Nat.t

(** {1 Montgomery contexts}

    A context precomputes the constants for a fixed odd modulus so that
    repeated exponentiations (the protocols encrypt thousands of values
    under the same prime) avoid per-call setup. *)

module Mont : sig
  type ctx

  (** [create m] precomputes a context for odd modulus [m] >= 3.

      Every modulus runs on one kernel family at 29-bit Montgomery limbs
      ([Nat]'s 30-bit limbs are repacked on the way in and out):
      carry-save multiply-and-reduce (CIOS), a dedicated squaring, lazy
      reduction and per-call arenas. The limb count [n] is the least
      with [4m < 2^(29n)], the headroom lazy reduction needs; at [n = 3]
      (57- to 85-bit moduli) and [n = 9] (231 to 259 bits, so every
      256-bit modulus) the multiply and the squaring are straight-line
      unrolled kernels, at any other [n] loops. The window width and
      {!pow_batch} lane count follow from [n] alone: 4-bit windows and
      4 lanes below 11 limbs, 5-bit windows and 2 lanes from there
      (1536- and 2048-bit moduli are 54 and 71 limbs). Results are
      bit-identical to {!pow_binary}, which the qcheck parity suite in
      test/test_bignum.ml pins every width to.
      @raise Invalid_argument if [m] is even or < 3. *)
  val create : Nat.t -> ctx

  val modulus : ctx -> Nat.t

  (** The kernel [create] chose, a function of the limb count alone:
      ["mont29x3-unrolled"] and ["mont29x9-unrolled"] at 3 and 9 limbs,
      ["mont29x<n>"] otherwise. *)
  val kernel_name : ctx -> string

  (** [pow ctx b e] is [b^e mod m] for [b] in [[0, m)]. *)
  val pow : ctx -> Nat.t -> Nat.t -> Nat.t

  (** [mul ctx a b] is [a*b mod m] for [a], [b] in [[0, m)]. *)
  val mul : ctx -> Nat.t -> Nat.t -> Nat.t

  (** [sqr ctx a] is [mul ctx a a], through the squaring kernel. *)
  val sqr : ctx -> Nat.t -> Nat.t

  (** The window decompositions of an exponent, precomputed once so
      repeated [pow]s under one fixed exponent (a batch encrypted under
      one key) skip the per-call bit scan. Carries both the 4-bit and
      the 5-bit digit arrays; each context picks its width. *)
  type exponent

  val precompute_exp : Nat.t -> exponent

  (** [pow_exp ctx b w] is [b^e mod m] where [w = precompute_exp e]. *)
  val pow_exp : ctx -> Nat.t -> exponent -> Nat.t

  (** [pow_batch ctx bs w] is [List.map (fun b -> pow_exp ctx b w) bs],
      bit for bit — but the whole batch shares one scratch arena and
      interleaves several bases through a single scan of the exponent's
      digits (simultaneous multi-exponentiation), so the steady state
      allocates nothing but the results. *)
  val pow_batch : ctx -> Nat.t list -> exponent -> Nat.t list

  (** [sqr_batch ctx xs] is [List.map (sqr ctx) xs] with the same
      arena amortization as {!pow_batch} (the hash-to-group hot step). *)
  val sqr_batch : ctx -> Nat.t list -> Nat.t list

  (** Test hooks: drive the arena stages separately so properties can
      pin each one down (notably zero allocation across
      {!Internal.run_windows}, via a Gc.minor_words delta). Not a stable
      API. *)
  module Internal : sig
    type arena

    (** [arena ctx] is a fresh arena with {!lanes} lanes and window
        tables. *)
    val arena : ctx -> arena

    (** Interleave width of the context's [pow_batch]. *)
    val lanes : ctx -> int

    val load_base : arena -> lane:int -> Nat.t -> unit
    val run_windows : arena -> lanes:int -> exponent -> unit
    val lane_result : arena -> lane:int -> Nat.t

    (** Bits per Montgomery limb (29), and the context's limb count
        [n]: the Montgomery radix is [R = 2^(limb_bits * n)]. *)
    val limb_bits : int

    val limbs : ctx -> int

    (** [product ctx op a b] runs one kernel on [a] and [b] staged as
        they are, with no range check, and returns its raw output:
        [a*b*R^-1 mod m] ([`Mul]) or [a*a*R^-1 mod m] ([`Sqr], which
        ignores [b]), still lazy in [[0, 2m)]. The kernels accept
        operands in [[0, 2m)]; the public entry points pass only
        [[0, m)] from outside. *)
    val product : ctx -> [ `Mul | `Sqr ] -> Nat.t -> Nat.t -> Nat.t
  end
end
