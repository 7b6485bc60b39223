(* The domain pool: parity with sequential map at every pool size,
   deterministic chunking, exception propagation, shutdown semantics,
   reentrancy, and concurrent use from systhreads (the wire runner
   drives both protocol parties as threads of one domain, so pools
   must tolerate two callers mapping at once). *)

module Pool = Parallel.Pool

let tc = Alcotest.test_case

(* [~force:true] spawns real worker domains even on a single-core host
   (where [create] would otherwise fall back to its sequential path),
   so these tests always exercise the queue/worker machinery. *)
let with_pool ?chunk size f =
  let p = Pool.create ?chunk ~force:true size in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Parity and ordering                                                 *)
(* ------------------------------------------------------------------ *)

let test_map_parity () =
  let f x = (x * 31) lxor 5 in
  List.iter
    (fun size ->
      List.iter
        (fun n ->
          let xs = List.init n (fun i -> i) in
          with_pool size (fun p ->
              Alcotest.(check (list int))
                (Printf.sprintf "size=%d n=%d" size n)
                (List.map f xs) (Pool.map p f xs)))
        [ 0; 1; 15; 16; 17; 33; 100 ])
    [ 1; 2; 4 ]

let test_map_qcheck =
  QCheck.Test.make ~count:100 ~name:"Pool.map = List.map at every pool size"
    QCheck.(pair (small_list small_int) (int_range 1 4))
    (fun (xs, size) ->
      with_pool size (fun p ->
          Pool.map p (fun x -> x + 1) xs = List.map (fun x -> x + 1) xs))

(* Chunk-level map: same boundaries as [map], so for a pure
   length-preserving [f] the results equal [f xs] at every pool size;
   a chunk body that changes the length is rejected. *)
let test_map_chunks () =
  let f chunk = List.map (fun x -> (x * 7) + 1) chunk in
  List.iter
    (fun size ->
      List.iter
        (fun n ->
          let xs = List.init n (fun i -> i) in
          with_pool size (fun p ->
              Alcotest.(check (list int))
                (Printf.sprintf "size=%d n=%d" size n)
                (f xs) (Pool.map_chunks p f xs)))
        [ 0; 1; 15; 16; 17; 33; 100 ])
    [ 1; 2; 4 ];
  (* The caller-only variant: same results, same chunk boundaries. *)
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i) in
      let sizes = ref [] in
      let got = Pool.map_chunks_seq (fun c -> sizes := List.length c :: !sizes; f c) xs in
      Alcotest.(check (list int)) (Printf.sprintf "seq n=%d" n) (f xs) got;
      Alcotest.(check (list int)) (Printf.sprintf "seq chunks n=%d" n)
        (List.init ((n + Pool.default_chunk - 1) / Pool.default_chunk) (fun i ->
             Int.min Pool.default_chunk (n - (i * Pool.default_chunk))))
        (List.rev !sizes))
    [ 0; 1; 15; 16; 17; 33; 100 ];
  Alcotest.check_raises "seq length change rejected"
    (Invalid_argument "Pool.map_chunks_seq: f changed the chunk length") (fun () ->
      ignore (Pool.map_chunks_seq List.tl (List.init 20 Fun.id)));
  with_pool 2 (fun p ->
      Alcotest.(check bool) "length change rejected" true
        (try
           ignore (Pool.map_chunks p (fun chunk -> List.tl chunk)
                     (List.init 20 Fun.id));
           false
         with Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun size ->
      with_pool size (fun p ->
          match Pool.map p (fun x -> if x = 37 then raise (Boom x) else x)
                  (List.init 64 (fun i -> i))
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom 37 -> ());
      (* The pool survives a failed map and stays usable. *)
      with_pool size (fun p ->
          (try ignore (Pool.map p (fun _ -> raise Exit) [ 1; 2; 3 ]) with Exit -> ());
          Alcotest.(check (list int)) "pool usable after failure" [ 2; 4; 6 ]
            (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ])))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

let test_unforced_create_degrades () =
  (* Without [~force] a single-core host gets a sequential pool; on a
     multicore host this is a real pool. Either way the contract holds. *)
  let p = Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check bool) "size is 3 (real) or 1 (sequential fallback)" true
        (List.mem (Pool.size p) [ 1; 3 ]);
      Alcotest.(check (list int)) "map" [ 0; 2; 4 ]
        (Pool.map p (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_shutdown_idempotent () =
  let p = Pool.create ~force:true 2 in
  Pool.shutdown p;
  Pool.shutdown p;
  (* Shutting down an already-shut pool is a no-op, using it raises. *)
  (match Pool.map p Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ());
  (* Sequential pools follow the same contract. *)
  let s = Pool.create 1 in
  Pool.shutdown s;
  match Pool.map s Fun.id [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown (sequential)"
  | exception Invalid_argument _ -> ()

let test_registry_replaces_closed () =
  let p = Pool.get 2 in
  Pool.shutdown p;
  let q = Pool.get 2 in
  Alcotest.(check (list int)) "registry hands out a live pool" [ 1; 2 ]
    (Pool.map q Fun.id [ 1; 2 ])

(* Asking for more workers than the runtime lets live degrades to a
   sequential pool, and leaves the registry usable afterwards. *)
let test_spawn_refusal_degrades () =
  let xs = List.init 1000 (fun i -> i) in
  let p = Pool.create ~force:true 1000 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check (list int)) "map" (List.map succ xs) (Pool.map p succ xs));
  let q = Pool.get 2 in
  Alcotest.(check (list int)) "registry still serves" [ 1; 2 ] (Pool.map q Fun.id [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Reentrancy and concurrent callers                                   *)
(* ------------------------------------------------------------------ *)

let test_nested_map_runs_inline () =
  with_pool 2 (fun p ->
      let r =
        Pool.map p
          (fun x -> List.fold_left ( + ) 0 (Pool.map p (fun y -> x * y) [ 1; 2; 3 ]))
          (List.init 40 (fun i -> i))
      in
      Alcotest.(check (list int)) "nested map"
        (List.init 40 (fun i -> 6 * i))
        r)

let test_concurrent_systhread_callers () =
  (* Both protocol parties hammer one pool from plain threads, as the
     in-process wire runner does. *)
  with_pool 2 (fun p ->
      let xs = List.init 200 (fun i -> i) in
      let expected = List.map (fun x -> x + 7) xs in
      let results = Array.make 4 [] in
      let threads =
        Array.init 4 (fun t ->
            Thread.create
              (fun () -> results.(t) <- Pool.map p (fun x -> x + 7) xs)
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun t r ->
          Alcotest.(check (list int)) (Printf.sprintf "thread %d" t) expected r)
        results)

(* ------------------------------------------------------------------ *)
(* Party forks                                                         *)
(* ------------------------------------------------------------------ *)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)
let party_cap = Int.max 0 (Domain.recommended_domain_count () - 1)

(* [f] with every party slot held by a fork parked on [release]. *)
let with_slots_held f =
  let release = Atomic.make false in
  let park () = while not (Atomic.get release) do Thread.delay 0.001 done in
  let held = List.init party_cap (fun _ -> Pool.fork park) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      List.iter Pool.await held)
    f

let test_fork_returns_and_raises () =
  Obs.Runtime.with_enabled (fun () ->
      let d0 = counter "pool.party_domains" and t0 = counter "pool.party_thread_fallbacks" in
      Alcotest.(check int) "result through the join" 42 (Pool.await (Pool.fork (fun () -> 6 * 7)));
      Alcotest.check_raises "exception through the join" (Failure "party") (fun () ->
          Pool.await (Pool.fork (fun () -> failwith "party")));
      (* Both released their slot: on a multi-core host both got one. *)
      let on_domains = if party_cap > 0 then 2 else 0 in
      Alcotest.(check int) "party domains" on_domains (counter "pool.party_domains" - d0);
      Alcotest.(check int) "thread fallbacks" (2 - on_domains)
        (counter "pool.party_thread_fallbacks" - t0))

(* Past the cap a fork runs on a systhread of the caller's domain, and
   once the slots are free again forks get domains. *)
let test_fork_cap_falls_back () =
  Obs.Runtime.with_enabled (fun () ->
      let d0 = counter "pool.party_domains" and t0 = counter "pool.party_thread_fallbacks" in
      let self = (Domain.self () :> int) in
      let where =
        with_slots_held (fun () -> Pool.await (Pool.fork (fun () -> (Domain.self () :> int))))
      in
      Alcotest.(check int) "over the cap: caller's domain" self where;
      Alcotest.(check int) "slots held on domains" party_cap (counter "pool.party_domains" - d0);
      Alcotest.(check int) "one thread fallback" 1 (counter "pool.party_thread_fallbacks" - t0);
      if party_cap > 0 then
        Alcotest.(check bool) "slots released" true
          (Pool.await (Pool.fork (fun () -> (Domain.self () :> int))) <> self))

(* When the runtime refuses the spawn (its own domain limit is reached)
   a fork with a free slot still runs, on a thread. *)
let test_fork_spawn_refusal () =
  let self = (Domain.self () :> int) in
  let release = Atomic.make false in
  let rec fill acc =
    match Domain.spawn (fun () -> while not (Atomic.get release) do Thread.delay 0.001 done) with
    | d -> fill (d :: acc)
    | exception Failure _ -> acc
  in
  let filled = fill [] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      List.iter Domain.join filled)
    (fun () ->
      Alcotest.(check int) "ran on a thread of the caller's domain" self
        (Pool.await (Pool.fork (fun () -> (Domain.self () :> int)))));
  if party_cap > 0 then
    Alcotest.(check bool) "slot released after the refusal" true
      (Pool.await (Pool.fork (fun () -> (Domain.self () :> int))) <> self)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          tc "parity across sizes and lengths" `Quick test_map_parity;
          QCheck_alcotest.to_alcotest test_map_qcheck;
          tc "map_chunks" `Quick test_map_chunks;
        ] );
      ( "exceptions",
        [ tc "propagates and pool survives" `Quick test_exception_propagates ] );
      ( "shutdown",
        [
          tc "unforced create degrades gracefully" `Quick test_unforced_create_degrades;
          tc "idempotent, use-after raises" `Quick test_shutdown_idempotent;
          tc "registry replaces closed pools" `Quick test_registry_replaces_closed;
          tc "spawn refusal degrades to sequential" `Quick test_spawn_refusal_degrades;
        ] );
      ( "party",
        [
          tc "fork returns and raises through the join" `Quick test_fork_returns_and_raises;
          tc "past the cap a fork runs on a thread" `Quick test_fork_cap_falls_back;
          tc "spawn refusal falls back to a thread" `Quick test_fork_spawn_refusal;
        ] );
      ( "reentrancy",
        [
          tc "nested map runs inline" `Quick test_nested_map_runs_inline;
          tc "concurrent systhread callers" `Quick test_concurrent_systhread_callers;
        ] );
    ]
