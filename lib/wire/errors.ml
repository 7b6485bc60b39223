(* Typed failures, in a leaf module so that [Transport], [Channel] and
   [Runner] can raise them while [Wire] (the library root) re-exports
   the exceptions under their short names. This is the one place that
   says which failures a reconnect can cure ([transient]); retry loops
   and front ends ask it instead of listing exception kinds. *)

(* The wire or the peer's framing went wrong in a way a fresh
   connection may not repeat: closed, reset, malformed or oversized
   frame, wrong tag, wrong payload shape, wrong count. Fault injection
   (drop, truncate, duplicate, disconnect) produces exactly these. *)
exception Protocol_error of string

(* A deadline expired while waiting for the peer. Carries what was
   being waited for and roughly how long we waited, so retry layers can
   log and back off meaningfully. *)
exception Timeout of { what : string; waited_s : float }

(* The peer sent something no honest peer sends: a configuration it
   does not share with us, an element outside the group, or a Paillier
   key or ciphertext that does not decode. A
   reconnect would meet the same peer, so it is never retried. *)
exception Peer_violation of string

let protocol_errorf fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt
let peer_violationf fmt = Printf.ksprintf (fun s -> raise (Peer_violation s)) fmt
let timeout ~what ~waited_s = raise (Timeout { what; waited_s })

(* One value, raised by every transport on a clean close, so [Runner]
   can tell a crash echo from its cause by identity. *)
let peer_closed = Protocol_error "Channel.recv: peer closed the channel"
let is_peer_closed e = e == peer_closed

let transient = function Protocol_error _ | Timeout _ -> true | _ -> false

let to_string = function
  | Protocol_error msg | Peer_violation msg -> msg
  | Timeout { what; waited_s } -> Printf.sprintf "timeout: %s after %.1fs" what waited_s
  | e -> Printexc.to_string e
