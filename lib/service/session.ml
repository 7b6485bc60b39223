type config = {
  group : Psi.Protocol.Group.t;
  cipher : Crypto.Perfect_cipher.scheme;
  workers : int;
  seed : string;
  max_ops : int;
  recv_timeout_s : float option;
}

type status = Completed | Rejected of string | Failed of string

type outcome = {
  tenant : string option;
  session_id : string option;
  ops_served : int;
  bytes : int;
  status : status;
}

let m_sessions = Obs.Metrics.counter "service.sessions"
let m_ops = Obs.Metrics.counter "service.ops"
let m_denied = Obs.Metrics.counter "service.denied"
let m_failures = Obs.Metrics.counter "service.failures"

(* The server contributes S's inputs; R's fields stay empty on this
   side (each party only reads its own). *)
let op_for (tenant : Tenant.t) ~attr name =
  match name with
  | "intersect" ->
      Psi.Session.Intersect { s_values = tenant.source.values_for attr; r_values = [] }
  | "intersect_size" ->
      Psi.Session.Intersect_size
        { s_values = tenant.source.values_for attr; r_values = [] }
  | "equijoin" ->
      Psi.Session.Equijoin { s_records = tenant.source.records_for attr; r_values = [] }
  | "equijoin_size" ->
      Psi.Session.Equijoin_size
        { s_values = tenant.source.values_for attr; r_values = [] }
  | other -> Wire.Errors.protocol_errorf "psid: unknown operation %S" other

let outcome_bytes ep =
  let s = Wire.Channel.stats ep in
  s.Wire.Channel.bytes_sent + s.Wire.Channel.bytes_received

(* Challenge-response. Unknown tenants get the same challenge and the
   same denial as a wrong MAC — verified against a secret derived from
   the daemon seed — so probes cannot distinguish "no such tenant"
   from "bad secret". *)
let authenticate cfg tenants ep ~tenant_id ~attr ~client_nonce =
  let server_nonce =
    Proto.derive ~seed:cfg.seed ~label:"psid:nonce:v1"
      [ tenant_id; attr; client_nonce ]
  in
  Wire.Channel.send ep (Proto.challenge ~server_nonce);
  let mac = Proto.parse_auth (Wire.Channel.recv ep) in
  let tenant = Tenant.find tenants tenant_id in
  let secret =
    match tenant with
    | Some t -> t.Tenant.secret
    | None -> Proto.derive ~seed:cfg.seed ~label:"psid:decoy:v1" [ tenant_id ]
  in
  let expected =
    Proto.auth_mac ~secret ~tenant:tenant_id ~attr ~client_nonce ~server_nonce
  in
  if Proto.ct_equal mac expected then tenant else None

let session_loop cfg tenants ep tenant ~attr ~client_nonce =
  let session_id =
    Proto.hex
      (String.sub
         (Proto.derive ~seed:cfg.seed ~label:"psid:sid:v1"
            [ tenant.Tenant.id; attr; client_nonce ])
         0 8)
  in
  Wire.Channel.send ep (Proto.ok ~session_id);
  let ecache = Tenant.ecache tenants tenant in
  let pcfg =
    Psi.Protocol.config ~domain:("csv:" ^ attr) ~cipher:cfg.cipher
      ~workers:cfg.workers ?ecache cfg.group
  in
  Psi.Handshake.respond pcfg ep;
  let session_seed =
    Proto.derive ~seed:cfg.seed ~label:"psid:session:v1"
      [ tenant.Tenant.id; attr; client_nonce ]
  in
  let drbg = Crypto.Drbg.split (Crypto.Drbg.create ~seed:session_seed) ~label:"sender" in
  Tenant.count_session tenants tenant;
  Obs.Metrics.incr m_sessions;
  let ops_served = ref 0 in
  let rec loop () =
    let m = Wire.Channel.recv ep in
    if String.equal m.Wire.Message.tag Proto.tag_bye then begin
      Proto.parse_bye m;
      Wire.Channel.send ep (Proto.bye ())
    end
    else if !ops_served >= cfg.max_ops then begin
      (* Budget exhausted: a typed busy, not a dead socket — the
         client surfaces it as [Proto.Busy], and the session stays
         alive for a clean goodbye (or a reconnect). *)
      ignore (Proto.parse_op m);
      Wire.Channel.send ep (Proto.busy ~reason:"session op budget exhausted");
      loop ()
    end
    else begin
      let name = Proto.parse_op m in
      let op = op_for tenant ~attr name in
      Wire.Channel.send ep (Proto.go ());
      let ops, _stats = Psi.Shard.sender_op pcfg Psi.Shard.monolithic ~drbg ep op in
      incr ops_served;
      Obs.Metrics.incr m_ops;
      Tenant.count_ops tenants tenant 1;
      Wire.Channel.send ep (Proto.done_ ~encryptions:ops.Psi.Protocol.encryptions);
      loop ()
    end
  in
  loop ();
  (* A finished session ends the tenant cache's generation: the flush
     appends what the session stored and evicts down to the tenant's
     bound, so the store stays bounded and the work survives a crash. *)
  Option.iter Cache.Ecache.flush ecache;
  (session_id, !ops_served)

let serve cfg tenants admission ~draining conn =
  let ep = Wire.Channel.of_transport (Listener.transport conn) in
  Wire.Channel.set_timeout ep cfg.recv_timeout_s;
  let finish outcome =
    Wire.Channel.close ep;
    Listener.close_conn conn;
    outcome
  in
  let rejected reason =
    (* Reject before reading anything: backpressure costs the server
       one control frame and zero crypto. *)
    (try Wire.Channel.send ep (Proto.busy ~reason)
     with Wire.Errors.Protocol_error _ -> ());
    (* The client is concurrently writing its hello; absorb it (bounded)
       before closing, or the close would RST the busy frame out from
       under the client's read. *)
    Wire.Channel.set_timeout ep (Some 1.0);
    (try ignore (Wire.Channel.recv ep : Wire.Message.t)
     with e when Wire.Errors.transient e -> ());
    Log.logf "session: rejected peer %s: %s" (Listener.peer conn) reason;
    finish
      { tenant = None; session_id = None; ops_served = 0; bytes = outcome_bytes ep;
        status = Rejected reason }
  in
  if draining () then rejected "draining"
  else if not (Admission.try_admit admission) then
    rejected
      (Printf.sprintf "at capacity (%d in flight)" (Admission.max_inflight admission))
  else
    Fun.protect
      ~finally:(fun () -> Admission.release admission)
      (fun () ->
        let tenant_id = ref None and session = ref None in
        let status =
          try
            let version, tenant, attr, client_nonce =
              Proto.parse_hello (Wire.Channel.recv ep)
            in
            if version <> Proto.version then begin
              Wire.Channel.send ep
                (Proto.denied
                   ~reason:(Printf.sprintf "unsupported version %d" version));
              Rejected "version"
            end
            else begin
              tenant_id := Some tenant;
              match authenticate cfg tenants ep ~tenant_id:tenant ~attr ~client_nonce with
              | None ->
                  Obs.Metrics.incr m_denied;
                  Wire.Channel.send ep (Proto.denied ~reason:"authentication failed");
                  Log.logf "session: denied tenant %S from %s" tenant
                    (Listener.peer conn);
                  Rejected "denied"
              | Some t ->
                  let sid, served = session_loop cfg tenants ep t ~attr ~client_nonce in
                  session := Some (sid, served);
                  Log.logf "session %s: tenant %s served %d op(s)" sid t.Tenant.id
                    served;
                  Completed
            end
          with e ->
            (* One session's fault, whatever its class, ends that
               session only: the daemon logs it and keeps serving. *)
            let msg = Wire.Errors.to_string e in
            Obs.Metrics.incr m_failures;
            Log.logf "session: failed (%s)" msg;
            Failed msg
        in
        finish
          {
            tenant = !tenant_id;
            session_id = Option.map fst !session;
            ops_served = (match !session with Some (_, n) -> n | None -> 0);
            bytes = outcome_bytes ep;
            status;
          })
