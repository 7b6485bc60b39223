(** Persistent, content-addressed store of per-element crypto work.

    The paper's cost model (§6.1) is dominated by the [Ce·n] encryption
    term, and both §6.2 applications re-run the same protocol
    periodically against slowly-changing sets. This cache remembers the
    expensive per-element results — hash-to-group outputs and
    commutative-encryption powers — across runs, so a repeat execution
    pays [Ce·|Δ|] instead of [Ce·n].

    {2 Addressing}

    Entries are keyed by [(namespace, key_fingerprint, input)] where all
    three are opaque strings:
    {ul
    {- [ns] separates kinds of work (["h2g:<domain>"] for hash-to-group,
       ["enc"] / ["dec"] for encryption and decryption);}
    {- [key_fp] is the commutative key's fingerprint for keyed work (and
       [""] for key-independent work such as hashing), so cached
       ciphertexts are only ever served back under the exact key that
       produced them — a fresh key misses everything by construction;}
    {- [input] and the stored output are wire encodings (of group
       elements, or raw values), so a hit is returned byte-for-byte as
       the cold path would have produced it, and the output of one
       slice can be the input of the next without being decoded.}}

    The protocols reach the cache through {!batch} alone: one call per
    slice of a step's elements.

    {2 Eviction}

    Eviction happens at {!flush}, never between flushes. A {!find} hit
    or a {!put} marks its entry as touched in the current generation,
    and each flush that follows a touch ends a generation. At a flush,
    entries left
    untouched are dropped, oldest-written first, down to
    [max max_entries touched] — but only once the droppable ones make up
    an eighth of the store, so a rerun with little churn appends instead
    of rewriting the file. The working set of the run between two
    flushes therefore always survives its flush, however large;
    [max_entries] bounds what persists beyond it.

    {2 Durability}

    [<dir>/ecache.psi] is a {!Wire.Record_log} of kind ["ecache"]. A
    frame holds one [(ns, key_fp)] slice and the generation that wrote
    it, once, then a bounded batch of entries. A flush appends frames
    for the entries stored since the previous flush, so a rerun writes
    O(|Δ|) bytes. It rewrites the file atomically only when it evicted,
    when the load found damage or a foreign file, or when superseded
    records outnumber live entries. Loading streams the file frame by
    frame and is forgiving by design: a foreign file (an older format,
    another kind) means every lookup misses, a corrupt frame loses only
    its own entries, and a truncated file loads up to the damage — a
    damaged cache degrades to recompute, it {e never} serves a wrong
    value. After a reload, the generation each frame carries orders the
    untouched entries for eviction.

    {2 Representation}

    In memory a slice is the frame bodies it was loaded from or built,
    kept as they are, plus an open-addressed index of two words per
    slot, at most three quarters full: an entry's position in the
    bodies, and its input's hash tag beside the generation that last
    touched it. A load checks each frame's lengths against its end,
    then indexes every entry where it lies, allocating nothing per
    entry; a look-up compares the query with the stored bytes in place
    and copies out only the value it returns; a store writes the entry
    into the slice's open body, which the next clean flush appends as
    it is. With 32-byte inputs and values an entry costs about 9 words
    of frame bytes and 3 to 5 words of index, against about 20 words in
    five boxed blocks for a hash table of entries.

    {2 Concurrency}

    All operations take an internal mutex, so one cache may be shared by
    both protocol parties, each on its own domain. {!batch} holds it for
    two passes only (the look-ups, then the stores) and computes the
    misses outside it. Two parties that miss on one input both compute
    it and store identical values. An acquisition that finds the mutex
    held waits for it and counts one [ecache.lock_waits].

    Telemetry (under [ecache.*], recorded when [Obs] is enabled):
    [ecache.hits], [ecache.misses], [ecache.puts] (entries stored by
    {!put} or {!batch}, not those loaded), [ecache.evictions],
    [ecache.corrupt_entries], [ecache.loaded_entries] (entries restored
    at {!open_}), [ecache.flushes] (flushes that wrote to the file),
    [ecache.lock_waits] (acquisitions of the mutex that had to wait).
    {!stats} is an always-on equivalent scoped to one cache instance.
    Under a trace, {!open_} indexes the frames it read in an
    [ecache/index] span, and {!batch} times its look-up pass and its
    store-and-stitch pass as [ecache/batch] spans, without attributes;
    the computing between them stays in the caller's span. *)

type t

(** Always-on per-instance statistics (independent of [Obs] being
    enabled — the incremental driver reports these even in untraced
    runs). *)
type stats = {
  hits : int;  (** {!find} calls answered from the store *)
  misses : int;  (** {!find} calls that found nothing *)
  puts : int;  (** entries inserted (excluding overwrites) *)
  evictions : int;  (** untouched entries dropped at a flush *)
  corrupt : int;  (** corrupt frames, torn tail or foreign file at load time *)
  loaded : int;  (** entries restored from disk at {!open_} *)
  entries : int;  (** current size of the store *)
}

(** [open_ ?max_entries ~dir ()] opens (creating [dir] if needed) the
    cache persisted at [dir/ecache.psi]. A missing, foreign, stale or
    damaged file yields an empty or partial cache, never an error.
    [max_entries] (default [65536]) bounds what persists beyond the
    working set between two flushes (see Eviction).
    @raise Invalid_argument if [max_entries < 1]. *)
val open_ : ?max_entries:int -> dir:string -> unit -> t

(** [find t ~ns ~key_fp input] returns the cached output, marking the
    entry as touched in the current generation. Counts one hit or one
    miss.
    @raise Invalid_argument on a closed cache. *)
val find : t -> ns:string -> key_fp:string -> string -> string option

(** [put t ~ns ~key_fp input output] stores (or refreshes) an entry and
    marks it as touched. Nothing is evicted until the next {!flush}.
    @raise Invalid_argument on a closed cache. *)
val put : t -> ns:string -> key_fp:string -> string -> string -> unit

(** [batch t ~ns ~key_fp ~compute inputs] is the output of each input
    in order: the stored one for a hit, and for the misses
    [compute misses], where [misses] are the inputs not found, in
    input order, duplicates kept. Every result of [compute] is stored,
    so [List.length misses] is the work actually done. [compute] runs
    on the caller, outside the lock, and is not called when every input
    hits. Counts one hit or one miss per input, as {!find} would.
    @raise Invalid_argument on a closed cache, or if [compute] changes
    the length of its list. *)
val batch :
  t ->
  ns:string ->
  key_fp:string ->
  compute:(string list -> string list) ->
  string list ->
  string list

(** [flush t] ends the current generation: it evicts (see Eviction),
    then appends the entries stored since the last flush to
    [dir/ecache.psi], or rewrites the file atomically
    ({!Wire.Record_log.write}) when it must. It writes nothing when
    nothing was stored or evicted, and it is a no-op when nothing was
    looked up or stored since the last flush: an idle generation does
    not end. *)
val flush : t -> unit

(** [close t] flushes and marks the cache closed; later {!find}/{!put}
    raise [Invalid_argument]. Idempotent. *)
val close : t -> unit

val stats : t -> stats

(** Number of entries currently in the store. *)
val entries : t -> int
