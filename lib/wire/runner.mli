(** Executes a two-party protocol: each party runs in its own thread
    against one endpoint of a {!Channel}. The receiver runs on the
    calling thread; the sender is started with {!Parallel.Pool.fork},
    so it gets a domain, and a core, of its own while fewer than
    [Domain.recommended_domain_count () - 1] party domains are live.
    Past that cap (a one-core host, a run nested inside a party) or
    when the runtime refuses the spawn, the sender runs on a systhread
    of the caller's domain instead: one core for both, the same
    transcripts. *)

(** The outcome of a run, including each party's channel statistics and
    view (transcript). *)
type ('s, 'r) outcome = {
  sender_result : 's;
  receiver_result : 'r;
  sender_stats : Channel.stats;
  receiver_stats : Channel.stats;
  sender_view : Message.t list;  (** messages S received from R *)
  receiver_view : Message.t list;  (** messages R received from S *)
  total_bytes : int;  (** bytes on the wire in both directions *)
}

(** [run ~sender ~receiver] connects a fresh in-memory channel, runs
    [sender] through {!Parallel.Pool.fork} and [receiver] in the calling
    thread, and joins. If either party raises, the channel is closed (unblocking
    the other) and the exception is re-raised. *)
val run :
  sender:(Channel.endpoint -> 's) -> receiver:(Channel.endpoint -> 'r) -> ('s, 'r) outcome

(** [run_on (s_ep, r_ep) ~sender ~receiver] is {!run} over caller-made
    endpoints — a socket pair, fault-wrapped transports, or a resumed
    connection. The endpoints are {e not} closed on success; on failure
    both are closed before the exception propagates. *)
val run_on :
  Channel.endpoint * Channel.endpoint ->
  sender:(Channel.endpoint -> 's) ->
  receiver:(Channel.endpoint -> 'r) ->
  ('s, 'r) outcome
