(** Shared machinery for the four protocols of Agrawal, Evfimievski &
    Srikant (SIGMOD 2003) and the intersection-sum [Aggregate].

    Values are arbitrary strings (the join-attribute values [V] of the
    paper). Each party hashes its values into [QR_p] (random-oracle
    style), encrypts them under a private commutative-encryption key, and
    ships {e lexicographically reordered} encodings — the reordering is
    load-bearing for security (§3.3 footnote 3) and the test suite
    asserts it on every transcript.

    Every two-party protocol opens the same way ({!own_layer}: [R]
    sends [Y_R]) and puts its key on the peer's list ({!peer_layer});
    the protocol modules keep only what they do with the result. *)

module Group = Crypto.Group

(** Protocol configuration shared by both parties. *)
type config = {
  group : Group.t;
  domain : string;
      (** hash domain separation (e.g. the attribute name); both parties
          must agree on it *)
  cipher : Crypto.Perfect_cipher.scheme;
      (** which [K] the equijoin uses for [ext(v)] *)
  workers : int;
      (** per-party parallelism for the bulk encryption steps — the
          paper's [P] processors (§6.2 assumes "encrypting the set of
          values is trivially parallelizable"); realized with OCaml 5
          domains *)
  ecache : Ecache.t option;
      (** persistent per-element crypto-work cache. The bulk hash,
          encrypt and decrypt steps work on wire encodings, cache or
          not. When set, each slice of them goes through one
          {!Ecache.batch} call: only the misses are computed (and tick
          an ops counter), making a repeat run cost [Ce·|Δ|]; results
          are byte-identical to a cold run. [None] (the default)
          computes every slice. *)
  scope : string;
      (** message-tag namespace prefix. [""] (the default) leaves every
          wire tag exactly as before; a sharded sub-protocol sets e.g.
          ["b3"] so its frames read ["b3/intersection/Y_R"] — the bucket
          id the tentpole's frame tagging rides on. Not part of the
          handshake fingerprint: both sides derive the same scopes from
          the shard plan. *)
}

(** [config ?domain ?cipher ?workers ?ecache ?scope group] with domain
    ["default"], the stream cipher, [workers = 1], no cache, and the
    empty scope. *)
val config :
  ?domain:string ->
  ?cipher:Crypto.Perfect_cipher.scheme ->
  ?workers:int ->
  ?ecache:Ecache.t ->
  ?scope:string ->
  Group.t ->
  config

(** [with_scope cfg scope] is [cfg] with its tag namespace replaced. *)
val with_scope : config -> string -> config

(** [scoped cfg tag] prefixes [tag] with [cfg.scope ^ "/"]; the empty
    scope returns [tag] unchanged (byte-identical transcripts). *)
val scoped : config -> string -> string

(** [pool_of cfg] is the shared domain pool for [cfg.workers], or
    [None] for a single worker (every map then runs on the caller). *)
val pool_of : config -> Parallel.Pool.t option

(** {1 Operation counters}

    The §6.1 cost model counts hash evaluations [Ch], commutative
    encryptions [Ce] and [K]-cipher operations [CK]; parties tally their
    own so benches can validate the model against reality. *)

type ops = { mutable hashes : int; mutable encryptions : int; mutable cipher_ops : int }

val new_ops : unit -> ops
val total : ops -> ops -> ops

(** [record_run ~op ~ops share] publishes one party's share of a
    finished run of [op] to the default {!Obs.Metrics} registry (no-op
    when telemetry is disabled). Both parties add their [ops] to the
    counters [psi.<op>.{encryptions,hashes,cipher_ops}]. The receiver's
    [`Receiver (v_s, wire_bytes)] also counts one [psi.<op>.runs], sets
    the gauge [psi.<op>.v_s] and adds [wire_bytes]; the sender's
    [`Sender v_r] sets the gauge [psi.<op>.v_r]. The executor
    ({!Shard}) publishes every operation this way, each party from its
    own tallies; [Obs_report.model_vs_measured] consumes them. *)
val record_run : op:string -> ops:ops -> [ `Receiver of int * int | `Sender of int ] -> unit

(** [launch drbg ~sender ~receiver] runs both parties in-process
    ({!Wire.Runner.run_on}) with their own streams split from [drbg]:
    ["sender"] first, then ["receiver"] (["sender#<a>"]/["receiver#<a>"]
    with [~attempt:a]). [endpoints] defaults to a fresh memory channel.
    The session executor ({!Shard}) runs every operation through it.
    [Aggregate.run] and [Intersection_size.run_to_third_party] stay
    outside the executor and call it directly; the latter runs the
    two-party size protocol's halves, [S] up to [Z_R] and [R] up to
    [Z_S]. *)
val launch :
  ?endpoints:Wire.Channel.endpoint * Wire.Channel.endpoint ->
  ?attempt:int ->
  Crypto.Drbg.t ->
  sender:(Crypto.Drbg.t -> Wire.Channel.endpoint -> 's) ->
  receiver:(Crypto.Drbg.t -> Wire.Channel.endpoint -> 'r) ->
  ('s, 'r) Wire.Runner.outcome

(** {1 Helpers used by the protocol modules} *)

(** [dedup values] sorts and removes duplicates — the paper's "set of
    values (without duplicates) that occur in [T.A]". A list that is
    already strictly increasing is returned as it is, after one linear
    check. *)
val dedup : string list -> string list

(** [reorder pairs] sorts [(encoding, value)] pairs by encoding (the
    §3.3 reorder) and checks, on the sorted list, that no two encodings
    are equal (§3.2.2).
    @raise Failure on two equal encodings. *)
val reorder : (string * 'a) list -> (string * 'a) list

(** [member_of zs] is a membership test over [zs], through a hash table
    with a seed of its own: encodings that derive from the peer's list
    cannot be ground into one bucket. *)
val member_of : string list -> string -> bool

(** [own_layer cfg ops key vs] is steps 1–2 on a party's own distinct
    values [vs]: each is hashed into [QR_p], encrypted under [key] and
    encoded, and the encodings are sorted, each beside its value:
    [(encoding of f_key(h v), v)] in lexicographic order of the
    encoding. Counts [length vs] hashes and encryptions; works a slice
    at a time, so the hashes and ciphertexts of the whole set never
    exist at once.
    Spans: [own-set], around one [hash] and one [encrypt-own] per
    slice, then [reorder] (the sort and the collision check of
    {!reorder}).
    @raise Failure if two values hash alike (§3.2.2 collision check). *)
val own_layer :
  config -> ops -> Crypto.Commutative.key -> string list -> (string * string) list

(** [peer_layer cfg ops key ys] is [f_key] over the peer's list [ys]
    of encodings, in its order, in an [encrypt-peer] span. Counts
    [length ys] encryptions. Every element it computes on (each cache
    miss) must decode into [QR_p].
    @raise Wire.Errors.Peer_violation on an element of the wrong width,
    out of range, or outside [QR_p]. *)
val peer_layer : config -> ops -> Crypto.Commutative.key -> string list -> string list

(** [hash_values cfg ops vs] is [(v, h(v))] for each [v] (parallel per
    [cfg.workers]), with the collision check of {!own_layer}. *)
val hash_values : config -> ops -> string list -> (string * Group.elt) list

(** [encrypt_batch cfg ops key xs] encrypts each element (parallel per
    [cfg.workers]) and counts [length xs] encryptions. *)
val encrypt_batch :
  config -> ops -> Crypto.Commutative.key -> Group.elt list -> Group.elt list

(** [encrypt_encoded_batch cfg ops key ss] decodes, encrypts and
    re-encodes a batch of the peer's wire-encoded elements, with the
    membership check of {!peer_layer}. *)
val encrypt_encoded_batch :
  config -> ops -> Crypto.Commutative.key -> string list -> string list

(** [decrypt_encoded_batch cfg ops key ss] is the inverse direction,
    on what the peer sent back, with the same check. *)
val decrypt_encoded_batch :
  config -> ops -> Crypto.Commutative.key -> string list -> string list

(** [sort_encoded ss] reorders encodings lexicographically. *)
val sort_encoded : string list -> string list

(** {1 Streaming sends}

    Chunked producers over {!Wire.Channel.send_elements_stream}: the
    frame on the wire is byte-identical to the equivalent batch send
    (same items, same order), so leakage shapes are unchanged — only
    the production schedule overlaps compute with I/O. Each send
    scopes its [tag] ({!scoped}). *)

(** Elements per streamed chunk (64). *)
val stream_chunk : int

(** [send_encrypted_stream cfg ops key ep ~tag ss] is {!peer_layer}
    streamed: it encrypts each wire-encoded element of [ss] under [key]
    ({e order-preserving}) and sends the results, chunk [k+1] encrypted
    across the pool while chunk [k] is on the wire. Counts [length ss]
    encryptions, in an [encrypt-peer] span; [ss] are the peer's, checked
    as in {!peer_layer}. *)
val send_encrypted_stream :
  config ->
  ops ->
  Crypto.Commutative.key ->
  Wire.Channel.endpoint ->
  tag:string ->
  string list ->
  unit

(** [send_elements_stream cfg ep ~tag ss] streams already-computed
    fixed-width encodings (I/O chunking only — for sends whose shuffle
    point forces the whole batch to exist before the first byte may
    leave). *)
val send_elements_stream :
  config -> Wire.Channel.endpoint -> tag:string -> string list -> unit

(** [send_pairs_stream cfg ep ~tag ~of_chunk xs] streams
    [Element_pairs] produced chunk-by-chunk by [of_chunk] (e.g. a
    pooled double-encryption), overlapping production with I/O. *)
val send_pairs_stream :
  config ->
  Wire.Channel.endpoint ->
  tag:string ->
  of_chunk:('a list -> (string * string) list) ->
  'a list ->
  unit

(** [send_one cfg ep ~tag x] sends the one item [x] (a key, a
    ciphertext, a sum) as an [Elements] message. *)
val send_one : config -> Wire.Channel.endpoint -> tag:string -> string -> unit

(** [is_sorted ss] checks lexicographic (non-strict) order — used by the
    security tests on transcripts. *)
val is_sorted : string list -> bool

val encode : config -> Group.elt -> string

(** [decode cfg s] decodes one of this party's own encodings, which
    are in [QR_p] by construction (no residuosity test).
    @raise Invalid_argument if [s] is not an element: a local bug. *)
val decode : config -> string -> Group.elt

(** [recv_tagged ep tag] receives one message and checks its tag.
    @raise Wire.Errors.Protocol_error on a tag mismatch. *)
val recv_tagged : Wire.Channel.endpoint -> string -> Wire.Message.payload

(** [elements_of payload] projects an [Elements] payload.
    @raise Wire.Errors.Protocol_error on another shape. *)
val elements_of : Wire.Message.payload -> string list

(** {1 Checked receives}

    The protocol modules receive through these: each scopes its tag
    ({!scoped}) and checks the payload, raising
    {!Wire.Errors.Protocol_error} — which a resilient session retries —
    on a wrong tag, a wrong shape or a wrong count. *)

(** [recv_elements cfg ep tag] is the element list of the next message. *)
val recv_elements : config -> Wire.Channel.endpoint -> string -> string list

(** [recv_pairs cfg ep tag] is the pair list ([Element_pairs] or
    [Ciphertext_pairs]) of the next message. *)
val recv_pairs : config -> Wire.Channel.endpoint -> string -> (string * string) list

(** [recv_one cfg ep tag] is the single item of the next message. *)
val recv_one : config -> Wire.Channel.endpoint -> string -> string

(** [expect_count tag n xs] is [xs] if it has [n] items — the peer's
    answer to our [n]-item list under [tag]. *)
val expect_count : string -> int -> 'a list -> 'a list

(** [peer_public s] and [peer_ciphertext pub s] decode the peer's
    Paillier key and ciphertexts, for [Aggregate] and [Pir].
    @raise Wire.Errors.Peer_violation on bytes that do not decode. *)
val peer_public : string -> Crypto.Paillier.public

val peer_ciphertext : Crypto.Paillier.public -> string -> Bignum.Nat.t
