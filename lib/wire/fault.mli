(** Deterministic fault injection for any {!Transport} backend.

    [wrap plan t] returns a transport that behaves like [t] except that
    each {e send} may, according to a pseudorandom stream derived
    entirely from [plan.seed], be dropped, delayed, truncated,
    duplicated, or turned into a disconnect. Equal plans over equal
    frame sequences inject exactly the same faults — chaos tests replay
    a schedule from its seed alone.

    Faults map to the failures the rest of the stack must survive:

    - {e drop} — the peer sees nothing and its next
      {!Channel.recv} deadline expires ({!Errors.Timeout});
    - {e delay} — the frame arrives late (possibly after the peer's
      deadline);
    - {e truncate} — the peer gets a prefix of the frame, which fails
      to decode ({!Errors.Protocol_error} ["malformed frame: …"]);
    - {e duplicate} — the frame arrives twice; the second copy trips
      the receiver's tag or count check ({!Errors.Protocol_error});
    - {e disconnect} — the underlying transport is closed mid-session
      ({!Errors.Protocol_error}).

    Every one of them is {!Errors.transient}; none is a
    {!Errors.Peer_violation}.

    The injected-fault counts are available both from {!stats} and as
    [wire.fault.*] counters in {!Obs.Metrics} when telemetry is on. *)

(** Per-frame fault probabilities (each in [0, 1]; evaluated in the
    order drop, truncate, duplicate, disconnect, delay — at most one
    fault fires per frame). *)
type plan = {
  seed : string;  (** everything below is derived from this *)
  drop : float;
  truncate : float;
  duplicate : float;
  disconnect : float;
  delay : float;
  max_delay_s : float;  (** a delay lasts [0 .. max_delay_s] seconds *)
  cut_after : int option;
      (** deterministically disconnect after this many sends — the
          "kill the connection mid-session" switch used by resume
          tests *)
}

(** [plan ~seed ()] with all probabilities 0 — override the faults you
    want. *)
val plan :
  ?drop:float ->
  ?truncate:float ->
  ?duplicate:float ->
  ?disconnect:float ->
  ?delay:float ->
  ?max_delay_s:float ->
  ?cut_after:int ->
  seed:string ->
  unit ->
  plan

(** Counts of injected faults, updated live by the wrapper. *)
type stats = {
  mutable drops : int;
  mutable truncates : int;
  mutable duplicates : int;
  mutable disconnects : int;
  mutable delays : int;
}

(** [wrap ?label plan t] wraps [t]. [label] (default ["a"]) feeds the
    stream derivation so the two directions of one connection can draw
    from independent streams. Returns the wrapped transport and its
    live fault counters. *)
val wrap : ?label:string -> plan -> Transport.t -> Transport.t * stats

(** [wrap_pair plan (a, b)] wraps both endpoints with independent
    streams (labels ["a"]/["b"]) and one shared {!stats}. *)
val wrap_pair :
  plan -> Transport.t * Transport.t -> (Transport.t * Transport.t) * stats
