(** Multi-query sessions: a {!Handshake} followed by any number of
    protocol runs over a single connection.

    §2.3 frames the multi-query setting (and its risks); this layer
    provides the mechanics: both parties verify configuration agreement
    once, then execute an agreed sequence of operations over the same
    channel, with cumulative traffic accounting. Pair it with {!Audit}
    to police what the sequence may reveal.

    Each operation is one of the paper's protocols; the parties must
    execute the same operation list in the same order (the protocol
    message tags catch divergence as a protocol error).

    {!run} executes in-process over one in-memory channel and fails on
    the first error. {!run_resilient} is the deployment-shaped variant:
    it runs over {e any} connector (sockets, fault-injected transports),
    checkpoints after every completed operation (and bucket), and on a
    transient failure reconnects with exponential backoff and resumes
    from the last common checkpoint.

    Every entry point runs its operations through one executor,
    {!Shard.execute}: the optional [?shard] plan only changes the bucket
    count, and the default 1-bucket plan is the paper's monolithic run. *)

(** Re-exported from {!Shard}, the executor. *)
type op = Shard.op =
  | Intersect of { s_values : string list; r_values : string list }
  | Intersect_size of { s_values : string list; r_values : string list }
  | Equijoin of { s_records : (string * string) list; r_values : string list }
  | Equijoin_size of { s_values : string list; r_values : string list }

type result = Shard.result =
  | Values of string list
  | Size of int
  | Matches of (string * string list) list

type report = {
  results : result list;  (** one per op, in order — the receiver's outputs *)
  peer_sizes : (int * int) list;
      (** one per op, in order: [|V_S|] as R learned it and [|V_R|] as S
          learned it (multiset sizes for the equijoin size), from each
          party's [Shard.stats.peer] *)
  total_bytes : int;  (** both directions, the config handshake included *)
  ops : Protocol.ops;  (** both parties combined *)
}

(** [run cfg ~seed ops ()] handshakes and executes [ops] sequentially
    over one channel ({!Shard.execute}, op index = list position). With
    a [?shard] plan of [k > 1] buckets, each op runs as [k] pipelined
    sub-protocols with per-bucket keys and bounded peak memory —
    results identical to the monolithic run.
    @raise Wire.Errors.Protocol_error or {!Wire.Errors.Peer_violation}
    on a peer's fault (the classes are {!Wire.Errors}'). *)
val run : Protocol.config -> ?seed:string -> ?shard:Shard.plan -> op list -> unit -> report

(** Wire name of an operation: ["intersect"], ["intersect_size"],
    ["equijoin"] or ["equijoin_size"]. Callers that drive only one side
    of a session over a live connection (the service layer) run
    {!Shard.sender_op}/{!Shard.receiver_op} with {!Shard.monolithic}. *)
val op_name : op -> string

(** {1 Incremental sessions}

    Both §6.2 applications re-run the same protocols periodically
    against slowly-changing sets. {!run_incremental} makes the repeat
    run cost [O(|Δ|)] crypto work instead of [O(n)]: it opens a
    persistent {!Ecache} in [cache_dir], diffs the current element sets
    against the snapshot committed by the previous run, executes the
    session with the cache plugged into {!Protocol.config} (only
    changed elements pay a modexp), and commits a new snapshot.
    Results are byte-identical to a cold run — the cache changes the
    compute schedule, never the transcript. *)

type incremental_stats = {
  cold : bool;
      (** no usable previous snapshot (first run, damaged file, changed
          operation list, or changed key policy) *)
  added : int;  (** elements in this run missing from the snapshot *)
  removed : int;  (** snapshot elements no longer present *)
  unchanged : int;  (** elements in both *)
  hits : int;  (** cache hits during this run *)
  misses : int;  (** cache misses (≈ crypto ops actually paid) *)
  run_id : int;  (** monotonically increasing run counter *)
}

type incremental_report = { report : report; incremental : incremental_stats }

(** [run_incremental cfg ~cache_dir ops ()] is {!run} with persistent
    amortization state in [cache_dir] ([ecache.psi] + [session.snap],
    both created on demand and safe to delete at any time — damage
    degrades to a cold run, never a wrong result).

    [keys] is the explicit reuse-policy knob (default [`Cached]):
    {ul
    {- [`Cached] replays [seed] verbatim, so the session derives the
       {e same} keys as the previous run and cached ciphertexts are
       reusable — maximum amortization, but runs become linkable
       through the reused [e_S] (see "Key reuse across runs" in
       docs/PROTOCOLS.md);}
    {- [`Fresh] folds the run counter into the seed: new keys whose
       fingerprints miss every cached ciphertext by construction —
       only the key-independent hash-to-group work amortizes.}}

    [max_entries] is the cache's bound (default 65536; see
    {!Ecache.open_}). It never evicts the run's own working set:
    the cache is flushed once, when the run ends, and only entries the
    run did not touch are dropped then, so a rerun over a slowly
    changing set hits on everything but the churn however large the
    set is. The bound caps what persists beyond that working set.

    With a [?shard] plan, each op runs as that plan's buckets, rooting
    the plan's state (bucket spills and per-bucket checkpoints) under
    [cache_dir]/shard when the plan has no [state_dir] of its own. *)
val run_incremental :
  Protocol.config ->
  ?seed:string ->
  ?keys:[ `Cached | `Fresh ] ->
  ?max_entries:int ->
  ?shard:Shard.plan ->
  cache_dir:string ->
  op list ->
  unit ->
  incremental_report

(** {1 Resilient sessions} *)

(** Retry policy for {!run_resilient}. *)
type resilience = {
  max_attempts : int;  (** connection attempts before giving up *)
  backoff_s : float;  (** sleep before reconnect #2; doubles each retry *)
  max_backoff_s : float;  (** backoff ceiling *)
  recv_timeout_s : float option;
      (** per-message deadline applied to both endpoints
          ({!Wire.Channel.set_timeout}); [None] waits forever, which
          leaves dropped frames undetectable *)
}

(** 5 attempts, 0.1 s initial backoff capped at 2 s, 5 s receive
    deadline. *)
val default_resilience : resilience

(** What {!run_resilient} adds over a {!report}. *)
type resilient_report = {
  report : report;
      (** [results] are identical to an uninterrupted {!run};
          [total_bytes]/[ops] count {e all} attempts, including work an
          interrupted attempt threw away *)
  attempts : int;  (** connections made (1 = no faults encountered) *)
  replays : int;
      (** op × bucket units (operations, for the 1-bucket plan)
          re-executed because one party had completed them but the
          other had not when the connection died *)
  receiver_views : Wire.Message.t list list;
      (** the receiver's transcript of each attempt, in order — what
          leakage analyses inspect *)
}

(** [run_resilient cfg ~seed ~connect ops] executes [ops] with
    checkpoint/resume semantics. [connect ~attempt] supplies a fresh
    endpoint pair per attempt (attempt numbering starts at 1) — an
    in-memory pair, a socket pair, or anything wrapped by
    {!Wire.Fault.wrap_pair}.

    After each completed operation (each bucket, for a plan with
    [k > 1]) both parties advance a checkpoint: in the plan's
    [state_dir] when it has one, in memory across attempts otherwise.
    Every operation opens with one [shard/resume] frame per party
    (after the config handshake, on every attempt) announcing that
    party's checkpoint, and both resume from the {e minimum} — an
    operation (bucket) both finished is skipped, one that only one
    party finished is replayed, and the receiver keeps the first
    completed result ({e idempotent replay}). Both parties draw fresh
    key material per attempt, so replays never reuse encryption keys.
    Checkpoints are consumed when the run completes.

    A failure {!Wire.Errors.transient} accepts ({!Wire.Errors.Protocol_error}:
    a closed connection, a malformed frame, a wrong tag, shape or count;
    {!Wire.Errors.Timeout}) triggers a reconnection with exponential
    backoff. Everything else propagates from the attempt that raised
    it: a {!Wire.Errors.Peer_violation} (configuration disagreement, an
    element outside [QR_p]) because a reconnect meets the same peer,
    and [Failure]/[Invalid_argument] because they are local bugs.
    Retries, reconnects and replays are published to {!Obs.Metrics} as
    [session.retries] / [session.reconnects] / [session.replays].

    @raise Wire.Errors.Protocol_error or {!Wire.Errors.Timeout} (the
    last one) after [max_attempts] failed attempts. *)
val run_resilient :
  ?resilience:resilience ->
  Protocol.config ->
  ?seed:string ->
  ?shard:Shard.plan ->
  connect:(attempt:int -> Wire.Channel.endpoint * Wire.Channel.endpoint) ->
  op list ->
  resilient_report
