(** The server side of one psid session, start to finish.

    Runs the {!Proto} state machine over an accepted connection:
    admission, challenge-response authentication, the {!Psi.Handshake}
    config check, then an operation loop in which the daemon plays the
    paper's party S ({!Psi.Shard.sender_op}) against the remote
    party R. One call serves one connection on the calling thread; the
    daemon runs one such call per connection thread.

    Determinism: all server-side secrets are {!Proto.derive}d from the
    daemon seed and the client's hello, so the server's protocol bytes
    for a given (tenant, attr, client_nonce) are identical whether the
    session ran alone or among a hundred concurrent ones. The flip side
    is key linkability: two sessions presenting the same hello reuse
    the same [e_S] — see "Tenancy and linkability" in docs/SERVICE.md.

    The connection is always closed (fd released) before returning; the
    admission slot, when one was taken, is always released. *)

(** Everything {!serve} needs besides the connection. *)
type config = {
  group : Psi.Protocol.Group.t;
  cipher : Crypto.Perfect_cipher.scheme;
  workers : int;  (** per-session bulk-crypto parallelism *)
  seed : string;  (** daemon key-derivation seed ({!Proto.derive}) *)
  max_ops : int;  (** per-session operation budget (>= 1) *)
  recv_timeout_s : float option;
      (** per-message deadline on the server endpoint; [None] trusts
          clients not to stall mid-session *)
}

type status =
  | Completed  (** clean [psid/bye] exchange *)
  | Rejected of string  (** busy or denied before any protocol work *)
  | Failed of string
      (** mid-session fault of any class, as {!Wire.Errors.to_string}
          prints it: timeout, protocol error, peer violation or local
          bug *)

type outcome = {
  tenant : string option;  (** authenticated tenant, once known *)
  session_id : string option;
  ops_served : int;
  bytes : int;  (** payload bytes sent + received on this connection *)
  status : status;
}

(** [serve cfg tenants admission ~draining conn] drives the whole
    session and reports how it went. [draining ()] is sampled at
    admission time: a draining daemon refuses new sessions exactly like
    a full one, with [psid/busy "draining"]. Never raises — faults are
    folded into [Failed]. *)
val serve :
  config ->
  Tenant.registry ->
  Admission.t ->
  draining:(unit -> bool) ->
  Listener.conn ->
  outcome
