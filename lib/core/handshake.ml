module Message = Wire.Message
module Channel = Wire.Channel

let tag = "handshake/config"

let fingerprint cfg =
  Crypto.Sha256.digest_concat
    [
      "psi-config-v1";
      Bignum.Nat.to_bytes_be (Crypto.Group.p cfg.Protocol.group);
      cfg.Protocol.domain;
      Crypto.Perfect_cipher.scheme_to_string cfg.Protocol.cipher;
    ]

(* A disagreement is the peer's configuration, not the wire's: a
   reconnect would meet it again. *)
let check mine theirs =
  if not (String.equal mine theirs) then
    Wire.Errors.peer_violationf
      "handshake failed: parties disagree on group/domain/cipher configuration"

let recv_fp ep =
  match Channel.recv ep with
  | { Message.tag = t; payload = Message.Elements [ fp ] } when t = tag -> fp
  | _ -> Wire.Errors.protocol_errorf "handshake failed: unexpected message"

(* Both sides derive the same 128-bit trace id from the fingerprints
   they exchange anyway — zero extra wire bytes, transcripts stay
   byte-identical whether tracing is on or off. (With the handshake's
   config fingerprints as the only shared material, the id names the
   configuration pairing, not an individual run; psi_trace separates
   runs by file and parties by label.) *)
let trace_id ~initiator_fp ~responder_fp =
  let digest =
    Crypto.Sha256.digest_concat [ "psi:trace-id:v1"; initiator_fp; responder_fp ]
  in
  String.concat ""
    (List.init 16 (fun i -> Printf.sprintf "%02x" (Char.code digest.[i])))

let set_context ~party ~initiator_fp ~responder_fp =
  Obs.Context.set_trace_id (trace_id ~initiator_fp ~responder_fp);
  Obs.Context.set_party party

let initiate cfg ep =
  Obs.Span.with_ "handshake" @@ fun () ->
  let mine = fingerprint cfg in
  Channel.send ep (Message.make ~tag (Message.Elements [ mine ]));
  let theirs = recv_fp ep in
  set_context ~party:"R" ~initiator_fp:mine ~responder_fp:theirs;
  check mine theirs

let respond cfg ep =
  Obs.Span.with_ "handshake" @@ fun () ->
  let mine = fingerprint cfg in
  let theirs = recv_fp ep in
  Channel.send ep (Message.make ~tag (Message.Elements [ mine ]));
  set_context ~party:"S" ~initiator_fp:theirs ~responder_fp:mine;
  check mine theirs
