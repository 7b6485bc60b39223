(** Typed failures, and the one answer to "can a reconnect cure this?"
    (the exceptions are re-exported as {!Wire.Protocol_error},
    {!Wire.Timeout} and {!Wire.Peer_violation}).

    A failed run falls in one of three classes:
    {ul
    {- {!Protocol_error} and {!Timeout} are {e transient}: the wire or
       the framing failed, and a fresh connection may not fail the same
       way. Fault injection ({!Fault}) produces exactly these.}
    {- {!Peer_violation} is the peer's fault, and a reconnect meets the
       same peer: never retried.}
    {- [Failure] and [Invalid_argument] mean a local bug; they are
       never retried either.}}
    {!transient} is the only retry predicate:
    [Psi.Session.run_resilient] retries exactly what it accepts. *)

(** Raised when the channel or the peer's framing fails: the peer
    closed or reset the connection, or sent a malformed or oversized
    frame, a frame with the wrong tag, the wrong payload shape or the
    wrong number of items. Transient. *)
exception Protocol_error of string

(** Raised when a receive deadline expires. [what] names the waiting
    operation (e.g. ["socket recv"]); [waited_s] is how long it waited.
    A timeout carries no verdict on the peer. Transient. *)
exception Timeout of { what : string; waited_s : float }

(** Raised when the peer sends what no honest peer sends: a handshake
    configuration that disagrees with ours, a group element of the
    wrong width, out of range, or outside [QR_p], or a Paillier key or
    ciphertext that does not decode. Not transient: no fault of the
    wire produces one. *)
exception Peer_violation of string

(** [protocol_errorf fmt ...] raises {!Protocol_error} with a formatted
    message. *)
val protocol_errorf : ('a, unit, string, 'b) format4 -> 'a

(** [peer_violationf fmt ...] raises {!Peer_violation} with a formatted
    message. *)
val peer_violationf : ('a, unit, string, 'b) format4 -> 'a

(** [timeout ~what ~waited_s] raises {!Timeout}. *)
val timeout : what:string -> waited_s:float -> 'a

(** The {!Protocol_error} every transport raises when the peer closed
    with nothing pending. *)
val peer_closed : exn

(** [is_peer_closed e] holds when [e] is {!peer_closed} itself — the
    echo of the other party's crash, which [Runner] sets aside for the
    crash's own exception. *)
val is_peer_closed : exn -> bool

(** [transient e] holds for {!Protocol_error} and {!Timeout}: the
    failures a reconnect can cure. *)
val transient : exn -> bool

(** [to_string e] is the one-line account front ends print for a
    failed session: the message of a {!Protocol_error} or
    {!Peer_violation}, ["timeout: WHAT after Ns"] for a {!Timeout}, and
    [Printexc.to_string e] for anything else. *)
val to_string : exn -> string
