(** A metered duplex channel between two protocol parties, over any
    {!Transport} backend.

    Every message is serialized by the sender and parsed by the receiver,
    so the byte counts in {!stats} are the true communication cost of a
    protocol run — the quantity §6.1 of the paper analyzes. Endpoints are
    thread-safe: the two parties run concurrently under {!Runner}.

    Each endpoint also records its {e view} — everything it received —
    which is what the paper's simulation proofs reason about; the
    security tests inspect these transcripts. *)

type endpoint

(** [create ()] is a connected pair of in-memory endpoints
    ({!Transport.Memory}). *)
val create : unit -> endpoint * endpoint

(** [of_transport tr] is an endpoint speaking over [tr] — a socket, a
    fault-injection proxy, or one side of a memory pair. *)
val of_transport : Transport.t -> endpoint

(** [transport_name ep] names the backend ([e.g.] ["memory"],
    ["socket"], ["fault"]). *)
val transport_name : endpoint -> string

(** [set_record_views ep false] stops this endpoint from retaining its
    transcript: {!sent} and {!received} return [[]] (any messages
    already logged are released), and streamed sends stop keeping the
    assembled message. Counters in {!stats} are unaffected. The logs are
    what the security tests inspect, but they hold every element ever
    exchanged — a memory-bounded run over million-element sets turns
    them off. Default: [true]. *)
val set_record_views : endpoint -> bool -> unit

(** [set_timeout ep (Some s)] makes every subsequent {!recv} on [ep]
    fail with {!Errors.Timeout} after [s] seconds without a complete
    message — including when a frame stalls {e mid-transfer}. [None]
    (the default) waits forever. A per-call [?timeout_s] overrides it. *)
val set_timeout : endpoint -> float option -> unit

(** [send ep m] serializes and delivers [m] to the peer. Never blocks on
    memory transports; may block on socket backpressure.
    @raise Errors.Protocol_error if the peer is gone. *)
val send : endpoint -> Message.t -> unit

(** [send_elements_stream ep ~tag ~width ~count next] sends the frame
    [send ep (make ~tag (Elements items))] would send — byte-identical,
    same single frame — but pulls [items] from [next] in chunks while
    earlier chunks are already on the wire, overlapping the producer's
    compute (encryption) with transport I/O. Every element must be
    exactly [width] bytes and the chunks must total [count] elements;
    [next] returning [None] ends the stream. The assembled message is
    recorded in {!sent} and {!stats} as usual.
    @raise Invalid_argument on a width or count mismatch. *)
val send_elements_stream :
  endpoint ->
  tag:string ->
  width:int ->
  count:int ->
  (unit -> string list option) ->
  unit

(** [send_pairs_stream] is {!send_elements_stream} for an
    [Element_pairs] payload; both components of every pair must be
    [width] bytes. *)
val send_pairs_stream :
  endpoint ->
  tag:string ->
  width:int ->
  count:int ->
  (unit -> (string * string) list option) ->
  unit

(** Default receive-side frame-size bound (64 MiB), equal to
    {!Transport.max_frame_bytes}. *)
val max_frame_bytes : int

(** [recv ep] blocks until a message arrives, then parses and returns it.
    Frames larger than [max_bytes] (default {!max_frame_bytes}) are
    rejected before decoding — on self-framing transports, before the
    payload is even allocated.
    @raise Errors.Timeout when the deadline ([?timeout_s], or the
    endpoint default from {!set_timeout}) expires first.
    @raise Errors.Protocol_error if the peer closed the channel with no
    message pending, on an oversized frame, or (["malformed frame: …"])
    if the frame does not decode to a {!Message.t}. *)
val recv : ?timeout_s:float -> ?max_bytes:int -> endpoint -> Message.t

(** [close ep] half-closes: wakes a peer blocked in {!recv}; frames
    already in flight are still delivered. Idempotent. *)
val close : endpoint -> unit

(** {1 Accounting} *)

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_received : int;
  bytes_received : int;
  elements_sent : int;
      (** group-element-sized fields sent (the paper's codeword count) *)
  closes : int;  (** how often {!close} was called on this endpoint *)
  max_message_bytes : int;
      (** largest frame this endpoint sent (0 if none) *)
}

(** Byte counts are message payload bytes: identical across transports;
    the socket backend's 4-byte framing prefix is not included. *)
val stats : endpoint -> stats

(** [received ep] is this endpoint's view: every message it received, in
    order. *)
val received : endpoint -> Message.t list

(** [sent ep] is every message this endpoint sent, in order. *)
val sent : endpoint -> Message.t list
