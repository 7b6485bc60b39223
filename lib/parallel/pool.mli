(** A fixed-size pool of worker domains with chunked, order-preserving
    parallel map.

    Every concurrency primitive ([Domain.spawn]/[Domain.join]) in the
    codebase lives behind this module; the [DOM01] lint rule enforces
    it. Results are deterministic: chunk boundaries depend only on the
    input length and the pool's chunk size (default
    {!default_chunk}), never on the worker count or scheduling, so
    [map pool f xs = List.map f xs] for a pure [f] at every pool size.

    Pools are safe to share between systhreads and domains (an
    in-process run's two parties, see {!fork}): concurrent [map] calls
    interleave on one queue and callers help run queued chunks while
    they wait. A nested [map] issued from a worker of the same pool
    runs inline (sequentially) instead of deadlocking.

    Telemetry (all under [pool.*], recorded when [Obs] is enabled):
    [pool.maps], [pool.chunks], [pool.items], [pool.seq_fallbacks],
    [pool.caller_chunks] (chunks stolen by waiting callers),
    [pool.busy_ns] / [pool.wall_ns] (utilization =
    busy / (wall x workers)), gauge [pool.workers], histogram
    [pool.chunk_ns]; [pool.party_domains] and
    [pool.party_thread_fallbacks] count {!fork}s by where they ran. *)

type t

(** Items per task; fixed across pool sizes so chunked execution is
    deterministic. *)
val default_chunk : int

(** [Domain.recommended_domain_count ()] — the default for [--jobs]. *)
val default_jobs : unit -> int

(** [create ?chunk ?force size] spawns [size] worker domains. When
    [size = 1] or the host reports a single core
    ([default_jobs () = 1]), no domains are spawned and every map runs
    sequentially on the caller; [~force:true] spawns domains anyway
    (oversubscribed but correct — used by the tests to exercise the
    worker path on single-core machines). If the runtime refuses a
    spawn (it caps live domains), the workers already spawned are
    joined and the pool is sequential too.
    @raise Invalid_argument when [size < 1] or [chunk < 1]. *)
val create : ?chunk:int -> ?force:bool -> int -> t

(** Configured parallelism: [size] as given to {!create} (1 for a
    sequential pool). *)
val size : t -> int

(** [map pool f xs] applies [f] to every element, in parallel across
    chunks, preserving order: [map_chunks pool (List.map f) xs].
    Exceptions from [f] are re-raised in the caller (first one wins). *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_chunks pool f xs] is [map] at chunk granularity: [f] receives
    each chunk whole (one task per chunk, same boundaries as [map]) and
    must return exactly as many results, in order. This is the hook for
    batch-aware kernels — [Commutative.encrypt_batch] hands each chunk
    to [Mont.pow_batch] so one scratch arena serves the whole chunk —
    while determinism is untouched: for a length-preserving pure [f],
    [map_chunks pool f xs = f xs] at every pool size.
    @raise Invalid_argument if [f] changes a chunk's length. *)
val map_chunks : t -> ('a list -> 'b list) -> 'a list -> 'b list

(** [map_chunks_seq ?chunk f xs] is [map_chunks] on the caller alone,
    with no pool and no telemetry: [f] sees [xs] in chunks of [chunk]
    items (default {!default_chunk}), in order. A batch kernel run
    without a pool goes through it so that each chunk's intermediates
    are garbage after the chunk, not after the whole list.
    @raise Invalid_argument if [f] changes a chunk's length. *)
val map_chunks_seq : ?chunk:int -> ('a list -> 'b list) -> 'a list -> 'b list

(** Join all workers after draining outstanding chunks. Idempotent;
    subsequent [map] calls raise [Invalid_argument]. *)
val shutdown : t -> unit

(** [get jobs] returns a process-wide shared pool of [jobs] workers,
    creating (and registering for at-exit shutdown) on first use. *)
val get : int -> t

(** {1 Party domains} *)

(** A thunk started by {!fork}; {!await} yields its result. *)
type 'a forked

(** [fork f] starts [f ()] on a fresh domain, so it computes on its own
    core alongside the caller — the in-process runner starts a protocol
    party this way. At most [Domain.recommended_domain_count () - 1]
    forked domains are live at once; past that cap (always, on a
    one-core host) or when the runtime refuses the spawn, [f] runs on a
    systhread of the caller's domain instead, with the same result.
    Counted as [pool.party_domains] and [pool.party_thread_fallbacks].
    Every fork must be {!await}ed exactly once: that releases its slot. *)
val fork : (unit -> 'a) -> 'a forked

(** [await t] waits for [t]'s thunk and returns its result, or re-raises
    its exception with the original backtrace. *)
val await : 'a forked -> 'a
