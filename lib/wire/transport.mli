(** Frame transports: how opaque byte frames move between two protocol
    endpoints.

    {!Channel} serializes {!Message.t}s and hands the resulting frames
    to a transport; the transport's only job is to deliver whole frames
    in order (or fail with a typed error). Three backends exist:

    - {!Memory} — the in-process queue pair the test suite and
      single-process runs use;
    - {!Socket} — length-prefixed frames over a [Unix] stream socket
      (TCP or Unix-domain), for real two-process deployments;
    - {!Fault.wrap} (in its own module) — a deterministic
      fault-injection proxy around any backend.

    All receive paths are deadline-aware: pass an absolute deadline (in
    {!now_s} seconds) and the transport raises {!Errors.Timeout} instead
    of blocking past it. *)

(** Interface every backend implements. [conn] is one side of a duplex
    frame pipe. *)
module type S = sig
  type conn

  (** Backend name, for diagnostics and metrics labels. *)
  val name : string

  (** [send c frame] delivers [frame] to the peer, whole and in order.
      @raise Errors.Protocol_error if the peer is gone. *)
  val send : conn -> string -> unit

  (** [send_stream c ~total produce] sends one frame of exactly [total]
      bytes whose body is pulled incrementally: [produce] is called
      until it returns [None] and the concatenated chunks form the
      frame. Observationally identical to [send] of the concatenation —
      same frame boundary, same bytes — but backends with incremental
      writes ({!Socket}) push each chunk to the peer as it is produced,
      overlapping the producer's compute with wire I/O.
      @raise Invalid_argument if the chunks exceed [total];
      @raise Errors.Protocol_error if they fall short (the frame is
      unrecoverably truncated at the peer). *)
  val send_stream : conn -> total:int -> (unit -> string option) -> unit

  (** [recv ?deadline ?max_bytes c] blocks for the next frame.
      Frames longer than [max_bytes] (default {!max_frame_bytes}) are
      rejected — on backends with their own framing, {e before} the
      payload is allocated or read.
      @raise Errors.Timeout when [deadline] (absolute, {!now_s} clock)
      passes first.
      @raise Errors.Protocol_error if the peer closed with no frame
      pending, or on a malformed/oversized frame. *)
  val recv : ?deadline:float -> ?max_bytes:int -> conn -> string

  (** [close c] half-closes: no more frames will be sent from this
      side, and a peer blocked in {!recv} wakes up with
      [Protocol_error]. Idempotent. *)
  val close : conn -> unit
end

(** A connection packed with its backend — what {!Channel.of_transport}
    consumes. *)
type t = Conn : (module S with type conn = 'c) * 'c -> t

val send : t -> string -> unit
val send_stream : t -> total:int -> (unit -> string option) -> unit
val recv : ?deadline:float -> ?max_bytes:int -> t -> string
val close : t -> unit

(** [name t] is the backend's {!S.name}. *)
val name : t -> string

(** Frames larger than this are rejected on receive (64 MiB — a frame
    holds one whole protocol message, so the cap is generous; it bounds
    what a broken or hostile peer can make us buffer). *)
val max_frame_bytes : int

(** [now_s ()] is the monotonic clock {!recv} deadlines are measured
    on, in seconds (backed by {!Obs.Clock.now_ns}). *)
val now_s : unit -> float

(** In-process backend: a pair of FIFO queues guarded by a mutex and
    condition variable. Frames survive a peer's {!S.close} — anything
    queued before the close is still delivered (matching half-closed
    TCP semantics). *)
module Memory : sig
  include S

  (** [pair ()] is a connected pair. *)
  val pair : unit -> t * t
end

(** Stream-socket backend. Each frame crosses the wire as a 4-byte
    big-endian length prefix followed by the payload; the prefix is
    checked against [max_bytes] {e before} the payload buffer is
    allocated. Creating a connection installs [Signal_ignore] for
    [SIGPIPE] (once, process-wide) so writes to a dead peer surface as
    {!Errors.Protocol_error} instead of killing the process. *)
module Socket : sig
  include S

  (** [of_fd fd] wraps an already-connected stream socket, turning on
      [TCP_NODELAY] when it is a TCP socket. The caller keeps ownership
      of [fd] (transport {!S.close} only shuts down the sending
      direction; [Unix.close] it yourself when finished). *)
  val of_fd : Unix.file_descr -> t

  (** [pair ()] is a connected [Unix.socketpair] — real fd-based framing
      without touching the network; used by tests and benches. *)
  val pair : unit -> t * t

  (** [listen ?backlog ~port ()] binds and listens on loopback
      [127.0.0.1:port] ([port = 0] picks an ephemeral port) and returns
      the listening fd plus the actual port. *)
  val listen : ?backlog:int -> port:int -> unit -> Unix.file_descr * int

  (** [accept ?deadline lfd] accepts one connection.
      @raise Errors.Timeout when [deadline] passes first. *)
  val accept : ?deadline:float -> Unix.file_descr -> t

  (** [connect ~host ~port] resolves [host] and connects.
      @raise Errors.Protocol_error when no address of [host] accepts. *)
  val connect : host:string -> port:int -> t
end
