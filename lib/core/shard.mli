(** The protocol executor: every run of the four protocols — monolithic
    or sharded, in-process or one-sided, plain or resilient — goes
    through this module's per-party bucket loop.

    A {!plan} with [k] buckets splits each party's set by a prefix of
    [h(v)]. [Hash_to_group] output is uniform over the group (§3.1
    random-oracle assumption), so element [v] lands in the same bucket
    on both sides (the assignment is a function of the element alone —
    stable under set order, pool size, and party), hence every
    intersection/join pair meets inside exactly one bucket and the union
    of the [k] sub-results equals the monolithic result. Hash collisions
    land in the same bucket by construction, so the per-bucket §3.2.2
    collision check is exactly as strong as the global one.

    [k = 1] {e is} the monolithic run: tag scope [""], keys drawn from
    the party's DRBG stream (continued across operations), no
    partitioning, no resume frame — byte-identical to the protocol's
    party functions run directly. What [k > 1] buys, at a precisely
    characterizable price:
    {ul
    {- {b Bounded peak memory.} Buckets stream from an on-disk spill
       format ({!spill_values}) through encrypt → exchange → match while
       the next bucket is read ahead ([Parallel.Pipeline]); peak
       residency is O(n/k), not O(n).}
    {- {b Per-bucket checkpoints.} With a [state_dir], each completed
       bucket commits a {!Wire.Snapshot}; a killed run resumes at the
       first unfinished bucket instead of restarting.}
    {- {b Leakage delta.} The receiver's transcript additionally reveals
       the [k] bucket sizes of the peer's set (≈ n/k each by hash
       uniformity) and one constant-shape resume frame per party per
       operation — and nothing else beyond the monolithic §5 leakage
       shape. See docs/PROTOCOLS.md, "Sharding and leakage".}}

    All of this state is {!Wire.Record_log} files. A spill is one log
    per bucket (one frame per flushed ≤ 1 MiB buffer) plus a one-frame
    meta log (kind, bucket sizes, input fingerprint) written last. A
    spill is used only when its meta is one clean frame and each bucket
    reads clean to exactly the meta's size; otherwise the run raises
    {!Wire.Record_log.Damaged} rather than compute on a partial set. A
    missing meta, or a foreign one beside no spill-log bucket (an older
    format), is no committed spill; a damaged checkpoint is no progress.

    The resume frame is exchanged iff [k > 1] or the run is resilient
    (both parties know both facts); resilient runs use the same
    checkpoints at op × bucket granularity. *)

(** One private-database operation — the same shape [Session] exposes
    (and re-exports from here). *)
type op =
  | Intersect of { s_values : string list; r_values : string list }
  | Intersect_size of { s_values : string list; r_values : string list }
  | Equijoin of { s_records : (string * string) list; r_values : string list }
  | Equijoin_size of { s_values : string list; r_values : string list }

type result =
  | Values of string list
  | Size of int
  | Matches of (string * string list) list

(** Stable operation tag, e.g. ["intersect"]. *)
val op_name : op -> string

(** {1 Plans} *)

type plan

(** Upper bound on [buckets] (4096). *)
val max_buckets : int

(** [plan ~buckets ()] describes how to shard a run; [buckets = 1] is
    the monolithic run.

    [state_dir] roots the on-disk state: bucket spill files, per-bucket
    checkpoints ([op<i>-*.prog] / [.result]) and epoch counters.
    Without it a [k > 1] run is sharded purely in memory and cannot
    resume across calls.

    @raise Invalid_argument on [buckets] outside [1 .. max_buckets]. *)
val plan : ?state_dir:string -> buckets:int -> unit -> plan

(** The 1-bucket plan without a state_dir. *)
val monolithic : plan

(** [with_default_state_dir plan dir] is [plan] with [state_dir = dir]
    when the plan has none (how [Session.run_incremental] roots shard
    state in its cache directory). *)
val with_default_state_dir : plan -> string -> plan

(** [bucket_of cfg ~buckets v] is [v]'s bucket: the first 64 bits of
    [h(v)]'s wire encoding, reduced mod [buckets]. A pure function of
    the element and the config — identical on both parties. *)
val bucket_of : Protocol.config -> buckets:int -> string -> int

(** {1 Spilling}

    Pre-partition a party's input stream into the plan's on-disk bucket
    files without ever materializing the whole set. A later run whose
    own-side list is [[]] runs against this committed spill (streaming
    the buckets back one at a time). Only these two functions commit a
    spill: a [k > 1] run that re-spills its own non-empty list marks the
    copy as its own, and an empty list never stands in for it — with no
    committed spill, [[]] is the empty set. Requires a plan with
    [state_dir]. *)

(** [spill_values cfg plan party ?op_index vs] partitions a value
    stream; returns the number of elements spilled. *)
val spill_values :
  Protocol.config ->
  plan ->
  [ `Sender | `Receiver ] ->
  ?op_index:int ->
  string Seq.t ->
  int

(** [spill_records cfg plan party ?op_index rs] partitions an equijoin
    sender's [(value, record)] stream by value. *)
val spill_records :
  Protocol.config ->
  plan ->
  [ `Sender | `Receiver ] ->
  ?op_index:int ->
  (string * string) Seq.t ->
  int

(** {1 Running operations}

    Each party's run of an op publishes its share of the op's §6.1
    tallies through {!Protocol.record_run} under the model's name
    ([psi.intersection.*], …): both parties their operation counts, the
    receiver the run, [|V_S|] and the op's wire bytes on its endpoint
    (resume frame included, handshake excluded), the sender [|V_R|]. *)

(** What one party's run of an operation did. *)
type stats = {
  buckets : int;
  sizes : int list;  (** own-partition bucket sizes, in bucket order *)
  start : int;
      (** first bucket executed on the wire this call; [> 0] means the
          run resumed from per-bucket checkpoints *)
  peer : int;
      (** the peer's set size as this party's transcript reveals it
          ([|V_S|] at the receiver, [|V_R|] at the sender; multiset
          sizes for the equijoin size), summed over the buckets executed
          this call *)
}

(** [sender_op cfg plan ~drbg ?op_index ep op] plays S for all [k]
    buckets of [op]: at [k = 1] one protocol run with keys from
    [Crypto.Drbg.to_rng drbg]; at [k > 1] the resume exchange, then
    buckets [start .. k-1] in order, each under tag scope ["b<i>"] with
    keys forked from [drbg] per bucket. [op_index] (default 0)
    separates the state and key derivations of multiple operations in
    one session. This party's checkpoints are consumed when the op
    completes. *)
val sender_op :
  Protocol.config ->
  plan ->
  drbg:Crypto.Drbg.t ->
  ?op_index:int ->
  Wire.Channel.endpoint ->
  op ->
  Protocol.ops * stats

(** [receiver_op cfg plan ~drbg ?op_index ep op] plays R and merges the
    per-bucket results (concatenated values re-sorted, sizes summed) —
    equal to the monolithic result by the bucket-partition argument
    above. *)
val receiver_op :
  Protocol.config ->
  plan ->
  drbg:Crypto.Drbg.t ->
  ?op_index:int ->
  Wire.Channel.endpoint ->
  op ->
  Protocol.ops * result * stats

(** Checkpoints of one resilient run: progress, run tokens and receiver
    results per op × bucket, kept across attempts — on disk when the
    plan has a [state_dir], in this value otherwise (no element data is
    written) — plus the run's replay count and accumulated tallies. *)
type checkpoints

val checkpoints : unit -> checkpoints

(** Buckets (op × bucket units) re-executed by a party that had already
    completed them, across all attempts so far. *)
val replays : checkpoints -> int

(** [execute cfg plan ?ck ?endpoints ?attempt drbg ops] runs both
    parties in-process ({!Protocol.launch}, over a fresh memory channel
    unless [endpoints] are given): config handshake, then every op in
    order (op index = list position). Passing [ck] makes the run
    resilient — a resume frame per party per op, and tallies
    accumulated into [ck] — and [attempt] picks the attempt's DRBG
    split. Checkpoints are consumed once both parties return. Returns
    the outcome (sender stats per op; receiver result and stats per op)
    and the combined tallies. *)
val execute :
  Protocol.config ->
  plan ->
  ?ck:checkpoints ->
  ?endpoints:Wire.Channel.endpoint * Wire.Channel.endpoint ->
  ?attempt:int ->
  Crypto.Drbg.t ->
  op list ->
  (stats list, (result * stats) list) Wire.Runner.outcome * Protocol.ops

type report = {
  result : result;
  total_bytes : int;
  ops : Protocol.ops;
  sender_stats : stats;
  receiver_stats : stats;
}

(** [run cfg ?seed plan op] executes one operation in-process through
    {!execute}, returning shard statistics. [record_views] (default
    [true]) is passed to {!Wire.Channel.set_record_views}: [false] drops
    the transcript logs so a million-element run is not re-materialized
    in memory by its own channel. *)
val run :
  Protocol.config -> ?seed:string -> ?record_views:bool -> plan -> op -> report
