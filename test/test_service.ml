(* Tests for the service layer (psid): control-protocol parsing and
   authentication, admission-control bounds, concurrent sessions with
   byte-identical-per-session transcripts, typed busy backpressure,
   graceful drain, and tenant cache isolation. *)

let group = Crypto.Group.named Crypto.Group.Test64

let source values =
  {
    Service.Tenant.values_for = (fun _attr -> values);
    records_for = (fun _attr -> List.map (fun v -> (v, "rec:" ^ v)) values);
  }

let tenant ?(secret = "s3cret") id values =
  { Service.Tenant.id; secret; source = source values }

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "psi-service-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let s_values = [ "ada"; "bob"; "eve"; "mallory"; "trent" ]
let r_values = [ "bob"; "carol"; "eve"; "zed" ]
let expected_intersection = [ "bob"; "eve" ]

let daemon ?(max_sessions = 8) ?(max_ops = 64) ?cache_root ?(cache_entries = 65536)
    ?(tenants = []) () =
  let cfg = Service.Daemon.config group ~tenants in
  Service.Daemon.start
    { cfg with max_sessions; max_ops_per_session = max_ops; cache_root; cache_entries }

let connect ?seed ?nonce ?(tenant = "acme") ?(secret = "s3cret")
    ?(attr = "email") d =
  Service.Client.connect ?seed ?nonce ~timeout_s:10.0 ~host:"127.0.0.1"
    ~port:(Service.Daemon.port d) ~tenant ~secret ~attr group

let run_intersect c =
  match
    Service.Client.run c (Psi.Session.Intersect { s_values = []; r_values })
  with
  | Psi.Session.Values vs, _enc -> List.sort String.compare vs
  | _ -> Alcotest.fail "expected Values result"

(* ---------------- proto ---------------- *)

let test_proto_roundtrip () =
  let m = Service.Proto.hello ~tenant:"t" ~attr:"a" ~client_nonce:"n" in
  let v, t, a, n = Service.Proto.parse_hello m in
  Alcotest.(check int) "version" Service.Proto.version v;
  Alcotest.(check (list string)) "fields" [ "t"; "a"; "n" ] [ t; a; n ];
  Alcotest.(check int) "done" 42
    (Service.Proto.parse_done (Service.Proto.done_ ~encryptions:42));
  Alcotest.check_raises "busy raises" (Service.Busy "full") (fun () ->
      ignore (Service.Proto.parse_admitted (Service.Proto.busy ~reason:"full")));
  Alcotest.check_raises "denied raises" (Service.Denied "no") (fun () ->
      ignore (Service.Proto.parse_admitted (Service.Proto.denied ~reason:"no")));
  Alcotest.check_raises "wrong tag"
    (Wire.Protocol_error "psid: expected psid/ok, got psid/op") (fun () ->
      ignore (Service.Proto.parse_admitted (Service.Proto.op ~name:"x")))

let test_proto_auth_mac () =
  let mac = Service.Proto.auth_mac ~secret:"k" ~client_nonce:"cn" ~server_nonce:"sn" in
  let m1 = mac ~tenant:"ab" ~attr:"c" and m2 = mac ~tenant:"a" ~attr:"bc" in
  Alcotest.(check bool) "field framing prevents collisions" false
    (String.equal m1 m2);
  Alcotest.(check bool) "deterministic" true
    (String.equal m1 (mac ~tenant:"ab" ~attr:"c"));
  Alcotest.(check bool) "ct_equal accepts equal" true
    (Service.Proto.ct_equal m1 (String.sub m1 0 (String.length m1)));
  Alcotest.(check bool) "ct_equal rejects" false (Service.Proto.ct_equal m1 m2);
  Alcotest.(check bool) "ct_equal length mismatch" false
    (Service.Proto.ct_equal m1 (m1 ^ "x"))

(* ---------------- admission ---------------- *)

let test_admission_bounds () =
  let a = Service.Admission.create ~max_inflight:2 in
  Alcotest.(check bool) "1st" true (Service.Admission.try_admit a);
  Alcotest.(check bool) "2nd" true (Service.Admission.try_admit a);
  Alcotest.(check bool) "3rd rejected" false (Service.Admission.try_admit a);
  Service.Admission.release a;
  Alcotest.(check bool) "slot freed" true (Service.Admission.try_admit a);
  Service.Admission.release a;
  Service.Admission.release a;
  Alcotest.(check int) "idle" 0 (Service.Admission.inflight a);
  Alcotest.(check bool) "await_idle immediate" true
    (Service.Admission.await_idle ~timeout_s:1.0 a)

let test_admission_concurrent () =
  (* 16 threads hammer admit/release; the bound must never be exceeded
     and the final state must be idle. *)
  let a = Service.Admission.create ~max_inflight:4 in
  let over = Atomic.make false in
  let threads =
    List.init 16 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 200 do
              if Service.Admission.try_admit a then begin
                if Service.Admission.inflight a > 4 then Atomic.set over true;
                Thread.yield ();
                Service.Admission.release a
              end
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check bool) "bound held" false (Atomic.get over);
  Alcotest.(check int) "drained to idle" 0 (Service.Admission.inflight a)

(* ---------------- sessions ---------------- *)

let test_single_session () =
  let d = daemon ~tenants:[ tenant "acme" s_values ] () in
  let c = connect d in
  Alcotest.(check (list string)) "intersection" expected_intersection
    (run_intersect c);
  (match
     Service.Client.run c
       (Psi.Session.Intersect_size { s_values = []; r_values })
   with
  | Psi.Session.Size n, _ -> Alcotest.(check int) "size" 2 n
  | _ -> Alcotest.fail "expected Size result");
  (match
     Service.Client.run c (Psi.Session.Equijoin { s_records = []; r_values })
   with
  | Psi.Session.Matches ms, _ ->
      Alcotest.(check (list string)) "join keys" expected_intersection
        (List.sort String.compare (List.map fst ms));
      List.iter
        (fun (v, recs) ->
          Alcotest.(check (list string))
            ("records for " ^ v)
            [ "rec:" ^ v ] recs)
        ms
  | _ -> Alcotest.fail "expected Matches result");
  Service.Client.close c;
  Alcotest.(check bool) "drained" true (Service.Daemon.wait ~timeout_s:10.0 d)

let test_concurrent_sessions_correct_and_deterministic () =
  let d = daemon ~tenants:[ tenant "acme" s_values ] () in
  (* Reference: the same session params run with zero concurrency. *)
  let reference =
    let c = connect ~seed:"client-0" d in
    let r = run_intersect c in
    let view = Service.Client.view c in
    Service.Client.close c;
    (r, view)
  in
  let n = 6 in
  let results = Array.make n ([], []) in
  let errors = Atomic.make [] in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            try
              let c = connect ~seed:(Printf.sprintf "client-%d" i) d in
              let r = run_intersect c in
              let view = Service.Client.view c in
              Service.Client.close c;
              results.(i) <- (r, view)
            with e ->
              Atomic.set errors (Printexc.to_string e :: Atomic.get errors))
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no client errors" [] (Atomic.get errors);
  Array.iteri
    (fun i (r, _) ->
      Alcotest.(check (list string))
        (Printf.sprintf "client %d correct" i)
        expected_intersection r)
    results;
  (* client-0 ran alone first and again among n-1 others: its view —
     every byte the server sent it — must be identical. *)
  let ref_result, ref_view = reference in
  let conc_result, conc_view = results.(0) in
  Alcotest.(check (list string)) "same result" ref_result conc_result;
  Alcotest.(check (list string))
    "byte-identical transcript under concurrency"
    (List.map Wire.Message.encode ref_view)
    (List.map Wire.Message.encode conc_view);
  ignore (Service.Daemon.wait ~timeout_s:10.0 d)

let test_busy_backpressure () =
  let d = daemon ~max_sessions:1 ~tenants:[ tenant "acme" s_values ] () in
  let c1 = connect d in
  (* c1 holds the only slot until closed. *)
  let busy_reason =
    match connect ~seed:"second" d with
    | c2 ->
        Service.Client.close c2;
        Alcotest.fail "second client should have been rejected"
    | exception Service.Busy reason -> reason
  in
  Alcotest.(check bool) "busy names the capacity" true
    (String.length busy_reason > 0);
  Alcotest.(check (list string)) "first session unaffected"
    expected_intersection (run_intersect c1);
  Service.Client.close c1;
  (* The slot frees when the server finishes the session; retry
     briefly rather than racing it. *)
  let rec retry n =
    match connect ~seed:"third" d with
    | c -> c
    | exception Service.Busy _ when n > 0 ->
        Thread.delay 0.05;
        retry (n - 1)
  in
  let c3 = retry 40 in
  Alcotest.(check (list string)) "after release" expected_intersection
    (run_intersect c3);
  Service.Client.close c3;
  ignore (Service.Daemon.wait ~timeout_s:10.0 d)

let test_op_budget () =
  let d = daemon ~max_ops:1 ~tenants:[ tenant "acme" s_values ] () in
  let c = connect d in
  Alcotest.(check (list string)) "first op ok" expected_intersection
    (run_intersect c);
  (match run_intersect c with
  | _ -> Alcotest.fail "second op should exceed the budget"
  | exception Service.Busy reason ->
      Alcotest.(check string) "typed budget rejection"
        "session op budget exhausted" reason);
  (* The session survives the rejection for a clean goodbye. *)
  Service.Client.close c;
  Alcotest.(check bool) "drained" true (Service.Daemon.wait ~timeout_s:10.0 d)

let test_drain () =
  let d = daemon ~tenants:[ tenant "acme" s_values ] () in
  let c = connect d in
  let finished = Atomic.make None in
  let worker =
    Thread.create
      (fun () ->
        (* Session already in flight when drain hits: must finish. *)
        Atomic.set finished (Some (run_intersect c)))
      ()
  in
  Service.Daemon.drain d;
  Alcotest.(check bool) "draining" true (Service.Daemon.draining d);
  (match connect ~seed:"late" d with
  | c2 ->
      Service.Client.close c2;
      Alcotest.fail "new session admitted while draining"
  | exception Service.Busy reason ->
      Alcotest.(check string) "drain reason" "draining" reason
  | exception Wire.Protocol_error _ ->
      (* Listener already closed — equally a refusal. *)
      ());
  Thread.join worker;
  Service.Client.close c;
  Alcotest.(check bool) "in-flight run completed" true
    (Atomic.get finished = Some expected_intersection);
  Alcotest.(check bool) "drained cleanly" true
    (Service.Daemon.wait ~timeout_s:10.0 d)

(* ---------------- auth ---------------- *)

let test_auth_rejections () =
  let d = daemon ~tenants:[ tenant "acme" s_values ] () in
  (match connect ~secret:"wrong" d with
  | c ->
      Service.Client.close c;
      Alcotest.fail "wrong secret accepted"
  | exception Service.Denied reason ->
      Alcotest.(check string) "wrong secret" "authentication failed" reason);
  (match connect ~tenant:"ghost" d with
  | c ->
      Service.Client.close c;
      Alcotest.fail "unknown tenant accepted"
  | exception Service.Denied reason ->
      (* Same message as a bad secret: no tenant-existence oracle. *)
      Alcotest.(check string) "unknown tenant" "authentication failed" reason);
  let c = connect d in
  Alcotest.(check (list string)) "good credentials still work"
    expected_intersection (run_intersect c);
  Service.Client.close c;
  ignore (Service.Daemon.wait ~timeout_s:10.0 d)

(* ---------------- tenants ---------------- *)

let test_tenant_cache_isolation () =
  let root = fresh_dir () in
  let t_a = tenant ~secret:"ka" "tenant-a" s_values in
  let t_b = tenant ~secret:"kb" "tenant/b" [ "only-b" ] in
  let reg = Service.Tenant.create ~cache_root:root [ t_a; t_b ] in
  let dir_a = Option.get (Service.Tenant.cache_dir reg t_a) in
  let dir_b = Option.get (Service.Tenant.cache_dir reg t_b) in
  Alcotest.(check bool) "distinct dirs" false (String.equal dir_a dir_b);
  Alcotest.(check bool) "ids sanitized for the filesystem" false
    (String.contains (Filename.basename dir_b) '/');
  let c_a = Option.get (Service.Tenant.ecache reg t_a) in
  let c_b = Option.get (Service.Tenant.ecache reg t_b) in
  Cache.Ecache.put c_a ~ns:"h2g:x" ~key_fp:"" "in-a" "out-a";
  Alcotest.(check (option string)) "A sees its entry" (Some "out-a")
    (Cache.Ecache.find c_a ~ns:"h2g:x" ~key_fp:"" "in-a");
  Alcotest.(check (option string)) "B cannot see A's entry" None
    (Cache.Ecache.find c_b ~ns:"h2g:x" ~key_fp:"" "in-a");
  Service.Tenant.close_all reg;
  Alcotest.(check bool) "A persisted under its own dir" true
    (Sys.file_exists (Filename.concat dir_a "ecache.psi"))

let test_tenant_sessions_end_to_end_with_cache () =
  let root = fresh_dir () in
  let d =
    daemon ~cache_root:root
      ~tenants:[ tenant ~secret:"ka" "a" s_values; tenant ~secret:"kb" "b" [ "zed" ] ]
      ()
  in
  let c_a = connect ~tenant:"a" ~secret:"ka" d in
  Alcotest.(check (list string)) "tenant a result" expected_intersection
    (run_intersect c_a);
  Service.Client.close c_a;
  let c_b = connect ~tenant:"b" ~secret:"kb" d in
  Alcotest.(check (list string)) "tenant b result" [ "zed" ] (run_intersect c_b);
  Service.Client.close c_b;
  (* Cross-tenant credentials must not work. *)
  (match connect ~tenant:"a" ~secret:"kb" d with
  | c ->
      Service.Client.close c;
      Alcotest.fail "tenant b's secret opened tenant a"
  | exception Service.Denied _ -> ());
  Alcotest.(check bool) "drained" true (Service.Daemon.wait ~timeout_s:10.0 d);
  Alcotest.(check bool) "tenant a cache persisted" true
    (Sys.file_exists (Filename.concat (Filename.concat root "a") "ecache.psi"));
  Alcotest.(check bool) "tenant b cache persisted" true
    (Sys.file_exists (Filename.concat (Filename.concat root "b") "ecache.psi"))

(* Every session runs under its own sender key, so each one stores
   ciphertexts no later session touches. Flushing the tenant cache when
   a session ends evicts them, so twelve sessions leave a store no
   larger than one does (up to the eighth that eviction waits for).
   Without that flush, one generation would span every session and the
   drain's flush would keep them all. *)
let test_tenant_cache_stays_bounded () =
  let root = fresh_dir () in
  let entries () =
    let c = Cache.Ecache.open_ ~dir:(Filename.concat root "a") () in
    let n = Cache.Ecache.entries c in
    Cache.Ecache.close c;
    n
  in
  let serve sessions =
    let d =
      daemon ~cache_root:root ~cache_entries:4
        ~tenants:[ tenant ~secret:"ka" "a" s_values ]
        ()
    in
    for i = 1 to sessions do
      let c = connect ~tenant:"a" ~secret:"ka" ~nonce:(Printf.sprintf "n%d" i) d in
      Alcotest.(check (list string)) "result" expected_intersection (run_intersect c);
      Service.Client.close c
    done;
    Alcotest.(check bool) "drained" true (Service.Daemon.wait ~timeout_s:10.0 d)
  in
  serve 1;
  let one = entries () in
  serve 12;
  let many = entries () in
  if 7 * many > 8 * one then
    Alcotest.failf "12 sessions left %d entries, one session %d" many one

(* ---------------- metrics endpoint ---------------- *)

let test_metrics_endpoint () =
  let cfg =
    Service.Daemon.config group ~tenants:[ tenant "acme" s_values ]
  in
  let d = Service.Daemon.start { cfg with metrics_port = Some 0 } in
  let port = Option.get (Service.Daemon.metrics_port d) in
  let status, body = Service.Http.get ~host:"127.0.0.1" ~port ~path:"/healthz" () in
  Alcotest.(check int) "healthz status" 200 status;
  Alcotest.(check string) "healthz body" "ok\n" body;
  let c = connect d in
  Alcotest.(check (list string)) "session over metrics-enabled daemon"
    expected_intersection (run_intersect c);
  Service.Client.close c;
  let status, body = Service.Http.get ~host:"127.0.0.1" ~port ~path:"/metrics" () in
  Alcotest.(check int) "metrics status" 200 status;
  let has needle =
    Alcotest.(check bool) (needle ^ " exported") true
      (let nl = String.length needle and bl = String.length body in
       let rec scan i = i + nl <= bl && (String.sub body i nl = needle || scan (i + 1)) in
       scan 0)
  in
  has "service_sessions";
  has "service_admitted";
  has "service_inflight";
  let status, _ = Service.Http.get ~host:"127.0.0.1" ~port ~path:"/nope" () in
  Alcotest.(check int) "unknown path" 404 status;
  Service.Daemon.drain d;
  let status, body = Service.Http.get ~host:"127.0.0.1" ~port ~path:"/healthz" () in
  Alcotest.(check int) "healthz while draining" 200 status;
  Alcotest.(check string) "draining body" "draining\n" body;
  ignore (Service.Daemon.wait ~timeout_s:10.0 d)

(* ---------------- listener ---------------- *)

let test_listener_max_conns_and_stop () =
  let l = Service.Listener.create ~port:0 () in
  let served = Atomic.make 0 in
  let t =
    Thread.create
      (fun () ->
        Service.Listener.run ~max_conns:2 l (fun conn ->
            ignore (Atomic.fetch_and_add served 1);
            Service.Listener.close_conn conn))
      ()
  in
  let poke () =
    let fd = Service.Listener.connect ~host:"127.0.0.1" ~port:(Service.Listener.port l) in
    Unix.close fd
  in
  poke ();
  poke ();
  Thread.join t;
  Alcotest.(check int) "served max_conns then exited" 2 (Atomic.get served);
  (* stop wakes an idle run. *)
  let l2 = Service.Listener.create ~port:0 () in
  let t2 = Thread.create (fun () -> Service.Listener.run l2 (fun _ -> ())) () in
  Service.Listener.stop l2;
  Thread.join t2;
  Alcotest.(check bool) "stopped" true (Service.Listener.stopped l2)

let () =
  Obs.enable ();
  Alcotest.run "service"
    [
      ( "proto",
        [
          Alcotest.test_case "roundtrip and typed rejections" `Quick
            test_proto_roundtrip;
          Alcotest.test_case "auth mac framing" `Quick test_proto_auth_mac;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounds" `Quick test_admission_bounds;
          Alcotest.test_case "concurrent hammer" `Quick test_admission_concurrent;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "single session, three ops" `Quick
            test_single_session;
          Alcotest.test_case "concurrent sessions: correct + deterministic"
            `Quick test_concurrent_sessions_correct_and_deterministic;
          Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
          Alcotest.test_case "per-session op budget" `Quick test_op_budget;
          Alcotest.test_case "drain finishes in-flight work" `Quick test_drain;
        ] );
      ( "auth",
        [ Alcotest.test_case "denied paths" `Quick test_auth_rejections ] );
      ( "tenants",
        [
          Alcotest.test_case "cache namespace isolation" `Quick
            test_tenant_cache_isolation;
          Alcotest.test_case "end-to-end with per-tenant caches" `Quick
            test_tenant_sessions_end_to_end_with_cache;
          Alcotest.test_case "session flushes keep a cache bounded" `Quick
            test_tenant_cache_stays_bounded;
        ] );
      ( "metrics",
        [ Alcotest.test_case "http endpoint" `Quick test_metrics_endpoint ] );
      ( "listener",
        [
          Alcotest.test_case "max-conns and stop" `Quick
            test_listener_max_conns_and_stop;
        ] );
    ]
