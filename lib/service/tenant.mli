(** Tenants: who may open sessions, over which data, with which cache.

    A tenant is psid's unit of isolation. Each one carries a shared
    secret (for the {!Proto} challenge-response), a data source (the
    server-side values the paper's party S contributes), and — when the
    daemon runs with a cache root — its {e own} {!Psi.Ecache} instance
    persisted under [cache_root/<id>/], opened lazily on first use.

    Separate cache instances in separate directories are the namespace
    isolation the multi-tenant setting needs: a lookup by tenant A
    cannot observe timing, contents or eviction pressure from tenant
    B's entries, because nothing of B's is reachable from A's store.
    (Within one tenant, the cache's own [(ns, key_fp, input)]
    addressing keeps protocol roles and keys apart as usual.)

    The registry is immutable after {!create}; per-tenant session/op
    counters are published as [service.tenant.<id>.sessions] and
    [service.tenant.<id>.ops]. *)

(** Where a tenant's values come from. Both functions take the
    attribute name from the client's hello and must be thread-safe;
    psid builds them from CSV files via [Minidb]. *)
type source = {
  values_for : string -> string list;
      (** distinct values of the attribute — input to intersections *)
  records_for : string -> (string * string) list;
      (** (value, extra-info row) pairs — input to equijoins *)
}

type t = {
  id : string;
  secret : string;  (** challenge-response key; never sent on the wire *)
  source : source;
}

type registry

(** [create ?cache_root ?cache_entries tenants] — [cache_root = None]
    disables caching (every session recomputes); [cache_entries]
    (default 65536) bounds what a tenant's cache keeps beyond the
    working sets of its sessions in flight: each session flushes the
    cache when it ends, and the flush evicts down to that bound.
    @raise Invalid_argument on duplicate tenant ids. *)
val create : ?cache_root:string -> ?cache_entries:int -> t list -> registry

val find : registry -> string -> t option
val ids : registry -> string list

(** [ecache reg tenant] is [tenant]'s private cache, opened (and its
    directory created) on first call; [None] when the registry has no
    cache root. *)
val ecache : registry -> t -> Cache.Ecache.t option

(** [cache_dir reg tenant] is where {!ecache} persists, even if not yet
    opened; [None] without a cache root. *)
val cache_dir : registry -> t -> string option

(** [count_session reg tenant] / [count_ops reg tenant n] bump the
    per-tenant counters. *)
val count_session : registry -> t -> unit

val count_ops : registry -> t -> int -> unit

(** [close_all reg] flushes and closes every opened cache. Idempotent. *)
val close_all : registry -> unit
