(** Configuration agreement check.

    The protocols silently assume both parties use the same group, hash
    domain and [K] cipher — a mismatch yields an empty intersection, not
    an error. This optional one-round handshake exchanges a fingerprint
    of the shared configuration and fails loudly on mismatch. Run it on
    a fresh channel before the protocol when the configs were not
    distributed out of band.

    The fingerprint commits to: wire-format version, group modulus,
    hash domain, cipher choice. It deliberately excludes [workers]
    (local parallelism does not affect the protocol). *)

(** The handshake also anchors distributed tracing: each side runs
    under a ["handshake"] span (psi_trace aligns the two parties'
    clocks on it) and, once fingerprints are exchanged, installs the
    ambient {!Obs.Context} — party ["R"] for the initiator, ["S"] for
    the responder, and a shared 128-bit trace id derived from the
    exchanged fingerprints. No extra bytes ride on the wire, so
    protocol transcripts are byte-identical with tracing on or off. *)

(** [fingerprint cfg] is a 32-byte digest of the protocol-relevant
    configuration. *)
val fingerprint : Protocol.config -> string

(** [trace_id ~initiator_fp ~responder_fp] is the 32-hex-char (128-bit)
    trace id both parties derive from the exchanged fingerprints. *)
val trace_id : initiator_fp:string -> responder_fp:string -> string

(** [initiate cfg ep] sends this side's fingerprint, waits for the
    peer's, and checks. Installs trace context as party ["R"].
    @raise Wire.Errors.Peer_violation when the configurations disagree.
    @raise Wire.Errors.Protocol_error when the peer's frame is not a
    handshake. *)
val initiate : Protocol.config -> Wire.Channel.endpoint -> unit

(** [respond cfg ep] is the passive side (party ["S"]), with the
    errors of {!initiate}. *)
val respond : Protocol.config -> Wire.Channel.endpoint -> unit
