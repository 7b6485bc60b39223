(* Chaos suite: the four protocols run to completion under seeded fault
   schedules (drops, delays, truncations, duplications, disconnects),
   with receiver outputs identical to the fault-free run and no message
   shapes beyond the fault-free leakage profile. Also covers the
   killed-then-resumed session and the socket-backed session. *)

module Session = Psi.Session
module Transport = Wire.Transport
module Fault = Wire.Fault
module Channel = Wire.Channel
module Message = Wire.Message

let cfg = Psi.Protocol.config ~domain:"chaos" (Crypto.Group.named Crypto.Group.Test64)

let s_values = [ "apple"; "banana"; "cherry"; "damson"; "elder"; "fig" ]
let r_values = [ "banana"; "cherry"; "grape"; "fig"; "quince" ]
let s_records = List.map (fun v -> (v, "row:" ^ v)) s_values
let s_multiset = "banana" :: "fig" :: "fig" :: s_values
let r_multiset = "fig" :: r_values

let all_ops =
  [
    Session.Intersect { s_values; r_values };
    Session.Intersect_size { s_values; r_values };
    Session.Equijoin { s_records; r_values };
    Session.Equijoin_size { s_values = s_multiset; r_values = r_multiset };
  ]

let result_equal a b =
  match (a, b) with
  | Session.Values x, Session.Values y -> List.equal String.equal x y
  | Session.Size x, Session.Size y -> Int.equal x y
  | Session.Matches x, Session.Matches y ->
      List.equal
        (fun (v1, r1) (v2, r2) ->
          String.equal v1 v2 && List.equal String.equal r1 r2)
        x y
  | (Session.Values _ | Session.Size _ | Session.Matches _), _ -> false

let result_pp fmt = function
  | Session.Values vs -> Format.fprintf fmt "Values [%s]" (String.concat "; " vs)
  | Session.Size n -> Format.fprintf fmt "Size %d" n
  | Session.Matches ms -> Format.fprintf fmt "Matches (%d values)" (List.length ms)

let result_t = Alcotest.testable result_pp result_equal

(* Connectors ------------------------------------------------------- *)

let memory_connect ~attempt:_ = Channel.create ()

let socket_connect ~attempt:_ =
  let a, b = Transport.Socket.pair () in
  (Channel.of_transport a, Channel.of_transport b)

let faulty_connect plan_of ~attempt =
  let a, b = Transport.Memory.pair () in
  let (fa, fb), _stats = Fault.wrap_pair (plan_of attempt) (a, b) in
  (Channel.of_transport fa, Channel.of_transport fb)

let clean_resilience =
  { Session.max_attempts = 1; backoff_s = 0.; max_backoff_s = 0.; recv_timeout_s = Some 10. }

let chaos_resilience =
  {
    Session.max_attempts = 80;
    backoff_s = 0.001;
    max_backoff_s = 0.01;
    recv_timeout_s = Some 0.08;
  }

(* Leakage profile: the (tag, element-count) shapes a transcript may
   contain. A faulty run may replay shapes from the fault-free profile
   (that is what resume does) but must never produce a new one. *)
let shapes views =
  List.concat_map (List.map (fun m -> (m.Message.tag, Message.element_count m))) views

let shape_mem (t, n) profile =
  List.exists (fun (t', n') -> String.equal t t' && Int.equal n n') profile

(* Fault-free runs -------------------------------------------------- *)

let baseline = lazy (Session.run cfg ~seed:"chaos-baseline" all_ops ())

let baseline_profile =
  lazy
    (let r =
       Session.run_resilient ~resilience:clean_resilience cfg ~seed:"chaos-baseline"
         ~connect:memory_connect all_ops
     in
     shapes r.Session.receiver_views)

let check_results what expected (actual : Session.report) =
  Alcotest.(check (list result_t)) what expected.Session.results actual.Session.results

(* Tests ------------------------------------------------------------ *)

let test_resilient_matches_plain () =
  let plain = Lazy.force baseline in
  let r =
    Session.run_resilient ~resilience:clean_resilience cfg ~seed:"chaos-baseline"
      ~connect:memory_connect all_ops
  in
  Alcotest.(check int) "single attempt" 1 r.Session.attempts;
  Alcotest.(check int) "no replays" 0 r.Session.replays;
  check_results "results" plain r.Session.report

let test_socket_session () =
  let plain = Lazy.force baseline in
  let r =
    Session.run_resilient ~resilience:clean_resilience cfg ~seed:"chaos-baseline"
      ~connect:socket_connect all_ops
  in
  check_results "results over sockets" plain r.Session.report;
  (* Payload byte accounting is transport-independent: the resilient
     memory run moves exactly the same bytes (both add one resume
     exchange on top of Session.run). *)
  let mem =
    Session.run_resilient ~resilience:clean_resilience cfg ~seed:"chaos-baseline"
      ~connect:memory_connect all_ops
  in
  Alcotest.(check int) "byte parity with memory transport"
    mem.Session.report.Session.total_bytes r.Session.report.Session.total_bytes

let chaos_plan seed attempt =
  Fault.plan ~drop:0.05 ~truncate:0.03 ~duplicate:0.04 ~disconnect:0.02 ~delay:0.10
    ~max_delay_s:0.002
    ~seed:(Printf.sprintf "chaos-%s/attempt-%d" seed attempt)
    ()

let run_chaos ?(ops = all_ops) seed =
  Session.run_resilient ~resilience:chaos_resilience cfg ~seed:("session-" ^ seed)
    ~connect:(faulty_connect (chaos_plan seed)) ops

let test_chaos_all_protocols seed () =
  let plain = Lazy.force baseline in
  let r = run_chaos seed in
  check_results ("results under faults, seed " ^ seed) plain r.Session.report;
  (* Every message the receiver ever saw — across every attempt — has a
     shape from the fault-free profile: faults and replays leak no new
     message kinds. *)
  let profile = Lazy.force baseline_profile in
  List.iter
    (fun (tag, n) ->
      if not (shape_mem (tag, n) profile) then
        Alcotest.failf "unexpected message shape under faults: (%s, %d)" tag n)
    (shapes r.Session.receiver_views)

let test_chaos_each_protocol seed () =
  let ops_of op = [ op ] in
  List.iteri
    (fun i op ->
      let name = Printf.sprintf "op %d seed %s" i seed in
      let plain = Session.run cfg ~seed:("single-" ^ seed) (ops_of op) () in
      let r =
        Session.run_resilient ~resilience:chaos_resilience cfg
          ~seed:("single-" ^ seed)
          ~connect:(faulty_connect (fun attempt -> chaos_plan (Printf.sprintf "%s-op%d" seed i) attempt))
          (ops_of op)
      in
      check_results name plain r.Session.report)
    all_ops

let test_chaos_streaming_parallel () =
  (* The streaming compute/I-O pipeline with the batch engine enabled:
     faults now land on partially-streamed frames while later chunks
     are still being encrypted. Results and leakage shapes must match
     the sequential fault-free baseline at every pool size. *)
  let plain = Lazy.force baseline in
  let profile = Lazy.force baseline_profile in
  List.iter
    (fun workers ->
      let cfg =
        Psi.Protocol.config ~workers ~domain:"chaos"
          (Crypto.Group.named Crypto.Group.Test64)
      in
      let r =
        Session.run_resilient ~resilience:chaos_resilience cfg
          ~seed:"session-stream"
          ~connect:(faulty_connect (chaos_plan (Printf.sprintf "stream-w%d" workers)))
          all_ops
      in
      check_results
        (Printf.sprintf "streamed under faults, workers=%d" workers)
        plain r.Session.report;
      List.iter
        (fun (tag, n) ->
          if not (shape_mem (tag, n) profile) then
            Alcotest.failf
              "unexpected shape under faults at workers=%d: (%s, %d)" workers tag
              n)
        (shapes r.Session.receiver_views))
    [ 2; 4 ]

let test_killed_then_resumed () =
  let plain = Lazy.force baseline in
  (* First connection is cut after a handful of frames — mid-session,
     past the handshake; later connections are clean. *)
  let connect ~attempt =
    if attempt = 1 then
      faulty_connect (fun _ -> Fault.plan ~cut_after:5 ~seed:"kill" ()) ~attempt
    else memory_connect ~attempt
  in
  let r =
    Session.run_resilient
      ~resilience:{ chaos_resilience with Session.max_attempts = 4 }
      cfg ~seed:"chaos-baseline" ~connect all_ops
  in
  Alcotest.(check bool) "resumed at least once" true (r.Session.attempts >= 2);
  check_results "killed-then-resumed results" plain r.Session.report

let test_replay_counted () =
  (* Cut the connection late on every odd attempt: some operations land
     on one side but not the other, forcing replays; the final results
     still match. *)
  let plain = Lazy.force baseline in
  let connect ~attempt =
    if attempt mod 2 = 1 then
      faulty_connect (fun _ -> Fault.plan ~cut_after:7 ~seed:"replay" ()) ~attempt
    else memory_connect ~attempt
  in
  let r =
    Session.run_resilient
      ~resilience:{ chaos_resilience with Session.max_attempts = 6 }
      cfg ~seed:"chaos-baseline" ~connect all_ops
  in
  check_results "replayed results" plain r.Session.report;
  Alcotest.(check bool) "made progress across cuts" true (r.Session.attempts >= 2)

let test_unrecoverable_raises () =
  (* Dropping every frame makes every attempt time out; after
     max_attempts the typed error surfaces. *)
  let connect = faulty_connect (fun _ -> Fault.plan ~drop:1.0 ~seed:"blackhole" ()) in
  let resilience =
    { Session.max_attempts = 2; backoff_s = 0.; max_backoff_s = 0.; recv_timeout_s = Some 0.03 }
  in
  match
    Session.run_resilient ~resilience cfg ~connect
      [ Session.Intersect { s_values; r_values } ]
  with
  | _ -> Alcotest.fail "expected the blackhole session to fail"
  | exception (Wire.Timeout _ | Wire.Protocol_error _) -> ()

(* A transport that passes each outgoing frame, numbered from 1,
   through [f] before [inner] sends it: a stand-in for a buggy local
   stack or a misbehaving peer, where a fault schedule models the
   wire. *)
let tampered ~f inner =
  let sends = ref 0 in
  let forward frame =
    incr sends;
    Transport.send inner (f !sends frame)
  in
  Transport.Conn
    ( (module struct
        type conn = unit

        let name = "tampered"
        let send () frame = forward frame

        let send_stream () ~total produce =
          let b = Buffer.create total in
          Seq.iter (Buffer.add_string b) (Seq.of_dispenser produce);
          forward (Buffer.contents b)

        let recv ?deadline ?max_bytes () = Transport.recv ?deadline ?max_bytes inner
        let close () = Transport.close inner
      end),
      () )

(* [connect] whose sender endpoint sends through [tampered ~f]; counts
   the connections made. *)
let tampered_connect ~f =
  let connects = ref 0 in
  let connect ~attempt:_ =
    incr connects;
    let a, b = Transport.Memory.pair () in
    (Channel.of_transport (tampered ~f a), Channel.of_transport b)
  in
  (connect, connects)

let retrying = { chaos_resilience with Session.max_attempts = 5; recv_timeout_s = Some 10. }

(* [Failure] is a local bug: the first attempt's is final, however many
   reconnects the policy allows. *)
let test_local_failure_not_retried () =
  let connect, connects =
    tampered_connect ~f:(fun n frame -> if n = 3 then failwith "local bug" else frame)
  in
  match Session.run_resilient ~resilience:retrying cfg ~connect all_ops with
  | _ -> Alcotest.fail "expected the local failure to surface"
  | exception Failure _ -> Alcotest.(check int) "attempts" 1 !connects

(* A peer whose Y_S carries p-1, a non-residue, violates the protocol;
   a reconnect would meet the same peer, so there is none. *)
let test_peer_violation_not_retried () =
  let g = cfg.Psi.Protocol.group in
  let p_minus_1 = Crypto.Group.encode_elt g (Bignum.Nat.sub (Crypto.Group.p g) Bignum.Nat.one) in
  let rewrite _ frame =
    match Message.decode frame with
    | { Message.tag = "intersection/Y_S"; payload = Message.Elements (_ :: rest) } ->
        Message.encode
          (Message.make ~tag:"intersection/Y_S" (Message.Elements (p_minus_1 :: rest)))
    | _ -> frame
  in
  let connect, connects = tampered_connect ~f:rewrite in
  match
    Session.run_resilient ~resilience:retrying cfg ~connect
      [ Session.Intersect { s_values; r_values } ]
  with
  | _ -> Alcotest.fail "expected the non-residue to be refused"
  | exception Wire.Peer_violation _ -> Alcotest.(check int) "attempts" 1 !connects

let test_retry_metrics () =
  let _, _, snapshot =
    Obs.trace (fun () ->
        let connect ~attempt =
          if attempt = 1 then
            faulty_connect (fun _ -> Fault.plan ~cut_after:5 ~seed:"metrics" ()) ~attempt
          else memory_connect ~attempt
        in
        Session.run_resilient
          ~resilience:{ chaos_resilience with Session.max_attempts = 4 }
          cfg ~connect all_ops)
  in
  let counter name =
    match Obs.Metrics.find_counter snapshot name with Some v -> v | None -> 0
  in
  Alcotest.(check bool) "session.retries > 0" true (counter "session.retries" > 0);
  Alcotest.(check bool) "session.reconnects > 0" true (counter "session.reconnects" > 0);
  Alcotest.(check bool) "wire.fault.disconnects > 0" true
    (counter "wire.fault.disconnects" > 0)

let test_ring_forensic_trail () =
  (* The always-on flight recorder must hold a forensic trail of the
     retry path after a killed-then-resumed session: the failed
     attempt's note and the reconnect note both survive in the ring. *)
  let plain = Lazy.force baseline in
  Obs.Ring.install ~capacity:65536 ();
  Fun.protect ~finally:Obs.Ring.uninstall (fun () ->
      let connect ~attempt =
        if attempt = 1 then
          faulty_connect (fun _ -> Fault.plan ~cut_after:5 ~seed:"ring" ()) ~attempt
        else memory_connect ~attempt
      in
      let r =
        Session.run_resilient
          ~resilience:{ chaos_resilience with Session.max_attempts = 4 }
          cfg ~seed:"chaos-baseline" ~connect all_ops
      in
      Alcotest.(check bool) "resumed at least once" true (r.Session.attempts >= 2);
      check_results "results with recorder installed" plain r.Session.report;
      let notes =
        List.filter_map
          (fun (e : Obs.Ring.event) ->
            match e.Obs.Ring.kind with Obs.Ring.Note n -> Some n | _ -> None)
          (Obs.Ring.dump ())
      in
      let has_prefix p s =
        String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p
      in
      Alcotest.(check bool) "failed attempt noted" true
        (List.exists (has_prefix "session: attempt") notes);
      Alcotest.(check bool) "reconnect noted" true
        (List.exists (has_prefix "session: reconnecting") notes);
      (* The recorder also saw the protocol's spans, not just notes. *)
      Alcotest.(check bool) "span events recorded" true
        (List.exists
           (fun (e : Obs.Ring.event) ->
             match e.Obs.Ring.kind with Obs.Ring.Enter _ -> true | _ -> false)
           (Obs.Ring.dump ())))

let () =
  Alcotest.run "chaos"
    [
      ( "fault-free",
        [
          Alcotest.test_case "resilient = plain" `Quick test_resilient_matches_plain;
          Alcotest.test_case "session over sockets" `Quick test_socket_session;
        ] );
      ( "chaos",
        List.map
          (fun seed ->
            Alcotest.test_case ("all protocols, seed " ^ seed) `Slow
              (test_chaos_all_protocols seed))
          [ "1"; "2"; "3" ]
        @ List.map
            (fun seed ->
              Alcotest.test_case ("each protocol alone, seed " ^ seed) `Slow
                (test_chaos_each_protocol seed))
            [ "1"; "2"; "3" ]
        @ [
            Alcotest.test_case "streaming pipeline under faults" `Slow
              test_chaos_streaming_parallel;
          ] );
      ( "resume",
        [
          Alcotest.test_case "killed then resumed" `Quick test_killed_then_resumed;
          Alcotest.test_case "replays converge" `Quick test_replay_counted;
          Alcotest.test_case "unrecoverable surfaces typed error" `Quick
            test_unrecoverable_raises;
          Alcotest.test_case "retry metrics" `Quick test_retry_metrics;
          Alcotest.test_case "local Failure is not retried" `Quick
            test_local_failure_not_retried;
          Alcotest.test_case "peer violation is not retried" `Quick
            test_peer_violation_not_retried;
          Alcotest.test_case "flight-recorder forensic trail" `Quick
            test_ring_forensic_trail;
        ] );
    ]
