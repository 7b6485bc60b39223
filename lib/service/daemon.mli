(** psid assembled: listener + admission + tenants + sessions +
    metrics endpoint, with a graceful-drain lifecycle.

    {!start} binds the protocol port and (optionally) the HTTP metrics
    port, then serves each accepted connection on its own thread —
    systhreads, not domains, because this box's crypto parallelism is
    already owned by {!Parallel.Pool} inside a session; connection
    threads spend their lives blocked on socket I/O, which systhreads
    overlap fine. {!Admission} bounds how many of them may do crypto at
    once; the rest are turned away at the door.

    Shutdown is a two-step contract, split so a signal handler can
    trigger it safely: {!drain} (two atomic stores — stop accepting,
    start refusing) followed by {!wait} (finish in-flight sessions,
    flush every tenant cache, dump the flight recorder, stop the
    metrics endpoint last so the drain itself is observable).
    [bin/psid.ml] wires SIGTERM/SIGINT to {!drain} and then {!wait}s on
    the main thread; docs/SERVICE.md documents the operator view. *)

type config = {
  port : int;  (** protocol port; [0] picks an ephemeral one *)
  metrics_port : int option;
      (** [Some p] serves HTTP [/metrics] + [/healthz] ([p = 0]
          ephemeral); [None] disables the endpoint *)
  backlog : int;  (** listen(2) backlog *)
  group : Psi.Protocol.Group.t;
  cipher : Crypto.Perfect_cipher.scheme;
  workers : int;  (** per-session bulk-crypto parallelism *)
  max_sessions : int;  (** admission bound (in-flight sessions) *)
  max_ops_per_session : int;
  recv_timeout_s : float option;  (** per-message deadline per session *)
  seed : string;  (** daemon key-derivation seed; see {!Session} *)
  tenants : Tenant.t list;
  cache_root : string option;  (** per-tenant ecache root; [None] = no caching *)
  cache_entries : int;
      (** per-tenant cache bound: entries kept beyond the working sets of
          the sessions in flight (each finished session flushes) *)
}

(** [config group ~tenants] with the defaults documented in
    docs/SERVICE.md: ephemeral port, no metrics endpoint, backlog 64,
    stream cipher, 1 worker, 8 in-flight sessions, 64 ops/session,
    30 s receive deadline, no cache. *)
val config : Psi.Protocol.Group.t -> tenants:Tenant.t list -> config

type t

(** [start cfg] binds, spawns the accept and metrics threads, returns
    immediately. Also enables {!Obs} telemetry — a daemon without its
    counters would make both /metrics and the manual's runbook lies. *)
val start : config -> t

(** The bound protocol port. *)
val port : t -> int

(** The bound metrics port, when the endpoint is enabled. *)
val metrics_port : t -> int option

val draining : t -> bool

(** Sessions currently holding an admission slot. *)
val inflight : t -> int

(** Connections accepted so far (including rejected ones). *)
val accepted : t -> int

(** [drain t] stops accepting and makes every not-yet-admitted
    connection receive [psid/busy "draining"]. In-flight sessions are
    untouched. Async-signal-safe, idempotent, returns immediately. *)
val drain : t -> unit

(** [wait ?timeout_s t] completes the shutdown: waits for in-flight
    sessions (up to [timeout_s], forever by default), joins their
    threads, flushes and closes tenant caches, trips the
    {!Obs.Ring} flight recorder with ["psid: drained"], and stops the
    metrics endpoint. Returns [false] if sessions were still running
    when [timeout_s] expired — caches are still flushed, but session
    threads are abandoned (the caller is expected to exit). Implies
    {!drain}. *)
val wait : ?timeout_s:float -> t -> bool
