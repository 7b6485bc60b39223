(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is an array of base-[2^30]
    limbs, least significant first, with no leading zero limb; callers
    never see the representation.

    This module replaces zarith (unavailable in this environment) for the
    cryptographic protocols of Agrawal et al., SIGMOD 2003. All operations
    are deterministic and allocation is proportional to operand size. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool

(** [compare a b] is negative, zero or positive as [a] is less than,
    equal to, or greater than [b]. *)
val compare : t -> t -> int

val min : t -> t -> t
val max : t -> t -> t

(** {1 Conversions} *)

(** [of_int n] converts a non-negative [int].
    @raise Invalid_argument if [n < 0]. *)
val of_int : int -> t

(** [to_int n] is [Some i] iff [n] fits in a non-negative OCaml [int]. *)
val to_int : t -> int option

(** [to_int_exn n] is [n] as an [int].
    @raise Invalid_argument if [n] does not fit. *)
val to_int_exn : t -> int

(** [of_bytes_be b] interprets [b] as a big-endian unsigned integer.
    The empty string maps to [zero]. *)
val of_bytes_be : string -> t

(** [to_bytes_be ?width n] is the big-endian encoding of [n], left-padded
    with zero bytes to [width] if given.
    @raise Invalid_argument if [n] needs more than [width] bytes. *)
val to_bytes_be : ?width:int -> t -> string

(** [of_hex s] parses a hexadecimal string (case-insensitive; may contain
    underscores and spaces as separators).
    @raise Invalid_argument on other characters or empty input. *)
val of_hex : string -> t

val to_hex : t -> string

(** [of_decimal s] parses a decimal string.
    @raise Invalid_argument on non-digit characters or empty input. *)
val of_decimal : string -> t

val to_decimal : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Bit-level access} *)

(** [num_bits n] is the position of the highest set bit plus one;
    [num_bits zero = 0]. *)
val num_bits : t -> int

(** [test_bit n i] is bit [i] of [n] (bit 0 is least significant). *)
val test_bit : t -> int -> bool

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Arithmetic} *)

val add : t -> t -> t
val succ : t -> t

(** [sub a b] is [a - b].
    @raise Invalid_argument if [a < b]. *)
val sub : t -> t -> t

val pred : t -> t

val mul : t -> t -> t

(** [mul_schoolbook a b] forces the quadratic algorithm (exposed for the
    Karatsuba ablation bench and for cross-checking). *)
val mul_schoolbook : t -> t -> t

val sqr : t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** [divmod_binary a b] computes the same result by shift-and-subtract
    long division; slower but independent of the Knuth-D code path
    (used as a testing oracle). *)
val divmod_binary : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t

(** [jacobi a n] is the Jacobi symbol [(a/n)] in {-1, 0, 1}: batched
    divsteps over the limbs, allocation-free once [a < n] (a larger [a]
    is reduced first).
    @raise Invalid_argument if [n] is even or zero. *)
val jacobi : t -> t -> int

(** [pow b e] is [b] raised to the small exponent [e].
    @raise Invalid_argument if [e < 0]. *)
val pow : t -> int -> t

(**/**)

(** Representation access for sibling modules of this library (Montgomery
    arithmetic in {!Modular}). Not part of the public API contract. *)
module Internal : sig
  val base_bits : int

  (** [of_limbs w] copies [w] (little-endian, possibly with leading
      zeros) and returns the value it denotes. *)
  val of_limbs : int array -> t

  (** [of_owned_limbs w] is {!of_limbs} without the copy: the value takes
      [w] over, so the caller must not touch [w] again. [w] is returned
      as it is when its top limb is non-zero, and trimmed (one copy)
      otherwise. *)
  val of_owned_limbs : int array -> t

  (** [raw_limbs n] is the value's own little-endian limb array, not a
      copy. Callers must treat it as read-only; mutating it corrupts the
      value. Exposed so {!Modular.Mont}'s arenas can stage limbs without
      a fresh array per call. *)
  val raw_limbs : t -> int array

  (** Number of times division's add-back correction has fired (test
      observability for Algorithm D's rarest branch). *)
  val add_back_count : int ref

  (** [jacobi_batched ~max_batches a n] is {!jacobi} with at most
      [max_batches] 60-step batches before the exact fallback loop
      finishes (tests force the fallback with small budgets). *)
  val jacobi_batched : max_batches:int -> t -> t -> int
end
