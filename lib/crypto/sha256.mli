(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used as the paper's ideal hash function [h] (random oracle model) and
    as the PRF inside {!Hmac}/{!Drbg}. Verified against the NIST example
    vectors in the test suite. *)

type ctx

(** [init ()] is a fresh hashing context. *)
val init : unit -> ctx

(** [reset ctx] returns [ctx] to the state {!init} gives, finalized or
    not, so one context can hash many messages without allocating. *)
val reset : ctx -> unit

(** [update ctx s] absorbs [s]. A finalized context takes no more input
    until {!reset}. *)
val update : ctx -> string -> unit

(** [finalize ctx] is the 32-byte digest of everything absorbed.
    @raise Invalid_argument if the context was already finalized. *)
val finalize : ctx -> string

(** [digest s] is the 32-byte SHA-256 of [s]. *)
val digest : string -> string

(** [digest_concat parts] hashes the concatenation of [parts] without
    building the concatenation. *)
val digest_concat : string list -> string

(** [hexdigest s] is {!digest} rendered as 64 lowercase hex characters. *)
val hexdigest : string -> string

val digest_size : int
val block_size : int
