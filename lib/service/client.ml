type t = {
  ep : Wire.Channel.endpoint;
  fd : Unix.file_descr;
  cfg : Psi.Protocol.config;
  drbg : Crypto.Drbg.t;
  session_id : string;
  closed : bool Atomic.t;
}

let release fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect ?(cipher = Crypto.Perfect_cipher.Stream_cipher) ?(workers = 1)
    ?timeout_s ?(seed = "psid-client") ?nonce ~host ~port ~tenant ~secret ~attr
    group =
  let nonce =
    match nonce with
    | Some n -> n
    | None -> Proto.derive ~seed ~label:"psid:client-nonce:v1" [ tenant; attr ]
  in
  let fd = Listener.connect ~host ~port in
  match
    let ep = Wire.Channel.of_transport (Wire.Transport.Socket.of_fd fd) in
    Wire.Channel.set_timeout ep timeout_s;
    Wire.Channel.send ep (Proto.hello ~tenant ~attr ~client_nonce:nonce);
    let m = Wire.Channel.recv ep in
    let server_nonce =
      if String.equal m.Wire.Message.tag Proto.tag_challenge then
        Proto.parse_challenge m
      else begin
        (* Anything else is busy/denied (raised typed) or a fault. *)
        ignore (Proto.parse_admitted m : string);
        Wire.Errors.protocol_errorf "psid: expected a challenge, got %s"
          m.Wire.Message.tag
      end
    in
    let mac = Proto.auth_mac ~secret ~tenant ~attr ~client_nonce:nonce ~server_nonce in
    Wire.Channel.send ep (Proto.auth ~mac);
    let session_id = Proto.parse_admitted (Wire.Channel.recv ep) in
    let cfg =
      Psi.Protocol.config ~domain:("csv:" ^ attr) ~cipher ~workers group
    in
    Psi.Handshake.initiate cfg ep;
    let drbg = Crypto.Drbg.split (Crypto.Drbg.create ~seed) ~label:"receiver" in
    { ep; fd; cfg; drbg; session_id; closed = Atomic.make false }
  with
  | t -> t
  | exception e ->
      release fd;
      raise e

let session_id t = t.session_id

let run t op =
  Wire.Channel.send t.ep (Proto.op ~name:(Psi.Session.op_name op));
  Proto.parse_go (Wire.Channel.recv t.ep);
  let _ops, result, _stats =
    Psi.Shard.receiver_op t.cfg Psi.Shard.monolithic ~drbg:t.drbg t.ep op
  in
  (result, Proto.parse_done (Wire.Channel.recv t.ep))

let stats t = Wire.Channel.stats t.ep
let view t = Wire.Channel.received t.ep

let close t =
  if not (Atomic.exchange t.closed true) then begin
    (match
       Wire.Channel.send t.ep (Proto.bye ());
       Proto.parse_bye (Wire.Channel.recv t.ep)
     with
    | () -> ()
    | exception e when Wire.Errors.transient e -> ());
    Wire.Channel.close t.ep;
    release t.fd
  end
