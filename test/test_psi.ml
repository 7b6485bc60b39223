(* Tests for the core protocols of Agrawal, Evfimievski & Srikant
   (SIGMOD 2003): correctness against plaintext oracles, the exact §6.1
   operation/communication counts, the security-checkable transcript
   properties, the §5.2 leakage characterization, the §3.1 strawman
   attack, the Appendix A baseline numbers, and the two applications. *)

module Runner = Wire.Runner
module Message = Wire.Message
module Group = Crypto.Group
module P = Psi.Protocol

let g64 = Group.named Group.Test64
let g256 = Group.named Group.Test256
let cfg = P.config g64
let cfg256 = P.config g256

let sorted_strings l = List.sort String.compare l

let plain_intersection a b =
  let sb = List.sort_uniq String.compare b in
  List.filter (fun x -> List.mem x sb) (List.sort_uniq String.compare a)

(* Some reusable inputs. *)
let vs1 = [ "apple"; "beet"; "corn"; "dill"; "endive" ]
let vr1 = [ "beet"; "corn"; "fig"; "grape" ]

(* One operation through the front door: the receiver's result and
   (|V_S| as R learned it, |V_R| as S learned it). *)
let session ?(cfg = cfg) ?(seed = "psi") op =
  match Psi.Session.run cfg ~seed [ op ] () with
  | { Psi.Session.results = [ r ]; peer_sizes = [ sizes ]; _ } -> (r, sizes)
  | _ -> Alcotest.fail "one operation, one result"

let values = function Psi.Session.Values vs -> vs | _ -> Alcotest.fail "expected values"
let size = function Psi.Session.Size n -> n | _ -> Alcotest.fail "expected a size"
let matches = function Psi.Session.Matches ms -> ms | _ -> Alcotest.fail "expected matches"

(* Both parties of one protocol over a fresh channel, with the streams
   Protocol.launch splits from [seed] — the keys Session.run derives at
   k = 1, so the views are the session's transcript minus its
   handshake. For tests that read per-party reports or views. *)
let launch ?(seed = "psi") sender receiver =
  P.launch (Crypto.Drbg.create ~seed)
    ~sender:(fun d -> sender ~rng:(Crypto.Drbg.to_rng d))
    ~receiver:(fun d -> receiver ~rng:(Crypto.Drbg.to_rng d))

let check_intersection ?(cfg = cfg) ~name ~vs ~vr expected =
  let r, (v_s, v_r) =
    session ~cfg ~seed:("t:" ^ name) (Psi.Session.Intersect { s_values = vs; r_values = vr })
  in
  Alcotest.(check (list string)) (name ^ ": intersection") (sorted_strings expected) (values r);
  Alcotest.(check int) (name ^ ": |V_S|") (List.length (List.sort_uniq String.compare vs)) v_s;
  Alcotest.(check int) (name ^ ": |V_R|") (List.length (List.sort_uniq String.compare vr)) v_r

(* ------------------------------------------------------------------ *)
(* Intersection: correctness                                           *)
(* ------------------------------------------------------------------ *)

let test_intersection_basic () = check_intersection ~name:"basic" ~vs:vs1 ~vr:vr1 [ "beet"; "corn" ]

let test_intersection_disjoint () =
  check_intersection ~name:"disjoint" ~vs:[ "a"; "b" ] ~vr:[ "c"; "d" ] []

let test_intersection_identical () =
  check_intersection ~name:"identical" ~vs:vs1 ~vr:vs1 vs1

let test_intersection_subset () =
  check_intersection ~name:"subset" ~vs:vs1 ~vr:[ "beet"; "dill" ] [ "beet"; "dill" ]

let test_intersection_empty_sides () =
  check_intersection ~name:"empty-s" ~vs:[] ~vr:vr1 [];
  check_intersection ~name:"empty-r" ~vs:vs1 ~vr:[] [];
  check_intersection ~name:"empty-both" ~vs:[] ~vr:[] []

let test_intersection_dedups_input () =
  check_intersection ~name:"dups" ~vs:[ "a"; "a"; "b" ] ~vr:[ "a"; "b"; "b"; "c" ] [ "a"; "b" ]

let test_intersection_binary_values () =
  (* Values with NULs, unicode, long strings. *)
  let weird = [ "\x00\x01\x02"; "naïve-ключ-鍵"; String.make 5000 'x'; "" ] in
  check_intersection ~name:"weird" ~vs:weird ~vr:(List.tl weird) (List.tl weird)

let test_intersection_randomized () =
  List.iter
    (fun (n_s, n_r, overlap) ->
      let vs, vr =
        Psi.Workload.value_sets
          ~seed:(Printf.sprintf "rand-%d-%d-%d" n_s n_r overlap)
          ~n_s ~n_r ~overlap
      in
      check_intersection
        ~name:(Printf.sprintf "random %d/%d/%d" n_s n_r overlap)
        ~vs ~vr (plain_intersection vs vr))
    [ (1, 1, 0); (1, 1, 1); (10, 10, 5); (50, 20, 20); (20, 50, 1); (100, 100, 37) ]

let test_intersection_larger_group () =
  check_intersection ~cfg:cfg256 ~name:"256-bit group" ~vs:vs1 ~vr:vr1 [ "beet"; "corn" ]

let test_intersection_deterministic_given_seed () =
  let run () =
    (launch ~seed:"det"
       (Psi.Intersection.sender cfg ~values:vs1)
       (Psi.Intersection.receiver cfg ~values:vr1))
      .Runner.receiver_view
  in
  Alcotest.(check bool) "same transcript" true (List.equal Message.equal (run ()) (run ()))

(* ------------------------------------------------------------------ *)
(* Intersection: §6.1 cost accounting                                  *)
(* ------------------------------------------------------------------ *)

let test_intersection_op_counts () =
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  let s_ops = o.Runner.sender_result.Psi.Intersection.ops in
  let r_ops = o.Runner.receiver_result.Psi.Intersection.ops in
  let v_s = 5 and v_r = 4 in
  let hashes, encryptions = Psi.Cost_model.exact_intersection_ops ~v_s ~v_r in
  Alcotest.(check int) "total hashes = |V_S| + |V_R|" hashes (s_ops.P.hashes + r_ops.P.hashes);
  Alcotest.(check int) "total Ce = 2(|V_S| + |V_R|)" encryptions
    (s_ops.P.encryptions + r_ops.P.encryptions);
  Alcotest.(check int) "S's Ce = |V_S| + |V_R|" (v_s + v_r) s_ops.P.encryptions;
  Alcotest.(check int) "no K ops" 0 (s_ops.P.cipher_ops + r_ops.P.cipher_ops)

let test_intersection_comm_counts () =
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  let v_s = 5 and v_r = 4 in
  (* (|V_S| + 2|V_R|) codewords: S ships |V_S| + |V_R|, R ships |V_R|. *)
  Alcotest.(check int) "S codewords" (v_s + v_r)
    o.Runner.sender_stats.Wire.Channel.elements_sent;
  Alcotest.(check int) "R codewords" v_r o.Runner.receiver_stats.Wire.Channel.elements_sent;
  (* Bytes: within framing overhead of k/8 per codeword. *)
  let k_bytes = Group.element_bytes g64 in
  let payload = (v_s + (2 * v_r)) * k_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "bytes %d close to payload %d" o.Runner.total_bytes payload)
    true
    (o.Runner.total_bytes >= payload && o.Runner.total_bytes <= payload + (3 * 64))

(* ------------------------------------------------------------------ *)
(* Intersection: transcript (security-checkable) properties            *)
(* ------------------------------------------------------------------ *)

let elements_of_view view tag =
  match List.find_opt (fun (m : Message.t) -> m.tag = tag) view with
  | Some m -> P.elements_of m.Message.payload
  | None -> Alcotest.failf "message %s not in view" tag

let test_intersection_sender_view_shape () =
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  (* S's entire view is one message: Y_R with |V_R| elements, sorted. *)
  (match o.Runner.sender_view with
  | [ m ] ->
      Alcotest.(check string) "tag" "intersection/Y_R" m.Message.tag;
      let es = P.elements_of m.Message.payload in
      Alcotest.(check int) "|Y_R|" 4 (List.length es);
      Alcotest.(check bool) "lexicographically reordered" true (P.is_sorted es);
      List.iter
        (fun e ->
          Alcotest.(check int) "fixed width" (Group.element_bytes g64) (String.length e))
        es
  | _ -> Alcotest.fail "S's view should be exactly one message");
  (* R's view: Y_S (sorted) then the encryptions of Y_R. *)
  let y_s = elements_of_view o.Runner.receiver_view "intersection/Y_S" in
  Alcotest.(check bool) "Y_S sorted" true (P.is_sorted y_s);
  Alcotest.(check int) "|Y_S|" 5 (List.length y_s)

let test_intersection_transcript_reveals_no_plaintext () =
  (* No value (nor its unkeyed hash) appears in any message on the wire. *)
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  let all_fields =
    List.concat_map
      (fun (m : Message.t) -> P.elements_of m.Message.payload)
      (o.Runner.sender_view @ o.Runner.receiver_view)
  in
  List.iter
    (fun v ->
      let h =
        Group.encode_elt g64 (Crypto.Hash_to_group.hash_value g64 ~domain:"default" v)
      in
      Alcotest.(check bool) ("hash of " ^ v ^ " not on wire") false (List.mem h all_fields);
      Alcotest.(check bool) ("plaintext " ^ v ^ " not on wire") false (List.mem v all_fields))
    (vs1 @ vr1)

let test_intersection_views_differ_across_seeds () =
  (* Fresh keys => fresh-looking transcripts for identical inputs. *)
  let view seed =
    List.concat_map
      (fun (m : Message.t) -> P.elements_of m.Message.payload)
      (launch ~seed
         (Psi.Intersection.sender cfg ~values:vs1)
         (Psi.Intersection.receiver cfg ~values:vr1))
        .Runner.receiver_view
  in
  let a = view "seed-a" and b = view "seed-b" in
  Alcotest.(check bool) "no common ciphertext" true
    (List.for_all (fun x -> not (List.mem x b)) a)

(* ------------------------------------------------------------------ *)
(* Property tests: random inputs through every protocol vs oracles     *)
(* ------------------------------------------------------------------ *)

let qtest name ?(count = 25) gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* Small random value multisets over a tiny alphabet (forces overlaps
   and duplicates). *)
let gen_values =
  QCheck2.Gen.(list_size (int_range 0 12) (map (Printf.sprintf "v%d") (int_range 0 9)))

let gen_pair = QCheck2.Gen.pair gen_values gen_values

let pair_print (a, b) =
  Printf.sprintf "S=[%s] R=[%s]" (String.concat ";" a) (String.concat ";" b)

let prop_intersection_oracle =
  qtest "intersection = oracle (random)" gen_pair pair_print (fun (vs, vr) ->
      values (fst (session (Psi.Session.Intersect { s_values = vs; r_values = vr })))
      = plain_intersection vs vr)

let prop_intersection_size_oracle =
  qtest "intersection size = oracle (random)" gen_pair pair_print (fun (vs, vr) ->
      size (fst (session (Psi.Session.Intersect_size { s_values = vs; r_values = vr })))
      = List.length (plain_intersection vs vr))

let prop_equijoin_size_oracle =
  qtest "equijoin size = oracle (random multisets)" gen_pair pair_print (fun (vs, vr) ->
      size (fst (session (Psi.Session.Equijoin_size { s_values = vs; r_values = vr })))
      = Psi.Leakage.join_size ~r_values:vr ~s_values:vs)

let prop_equijoin_oracle =
  qtest "equijoin = oracle (random)" gen_pair pair_print (fun (vs, vr) ->
      let records = List.mapi (fun i v -> (v, Printf.sprintf "%s#%d" v i)) vs in
      let o =
        launch (Psi.Equijoin.sender cfg ~records) (Psi.Equijoin.receiver cfg ~values:vr)
      in
      let expected =
        plain_intersection vs vr
        |> List.map (fun v -> (v, List.filter_map
                                    (fun (v', p) -> if v' = v then Some p else None)
                                    records))
      in
      o.Runner.receiver_result.Psi.Equijoin.matches = expected
      && o.Runner.receiver_result.Psi.Equijoin.collisions = [])

let prop_aggregate_oracle =
  qtest "aggregate sum = oracle (random)" ~count:10 gen_pair pair_print (fun (vs, vr) ->
      let records = List.mapi (fun i v -> (v, i mod 17)) vs in
      let o =
        Psi.Aggregate.run cfg ~key_bits:128 ~sender_records:records ~receiver_values:vr ()
      in
      let expected =
        List.fold_left
          (fun acc (v, x) ->
            if List.mem v (List.sort_uniq String.compare vr) then acc + x else acc)
          0 records
      in
      o.Runner.receiver_result.Psi.Aggregate.sum = expected)

(* ------------------------------------------------------------------ *)
(* Parallel encryption (the paper's P processors)                      *)
(* ------------------------------------------------------------------ *)

let test_parallel_protocols_same_results () =
  let vs, vr = Psi.Workload.value_sets ~seed:"par" ~n_s:80 ~n_r:80 ~overlap:33 in
  let cfg1 = P.config ~workers:1 g64 in
  let cfg4 = P.config ~workers:4 g64 in
  let run cfg =
    let o =
      launch ~seed:"par-seed"
        (Psi.Intersection.sender cfg ~values:vs)
        (Psi.Intersection.receiver cfg ~values:vr)
    in
    ( o.Runner.receiver_result.Psi.Intersection.intersection,
      o.Runner.receiver_result.Psi.Intersection.ops.P.encryptions,
      o.Runner.sender_result.Psi.Intersection.ops.P.encryptions )
  in
  Alcotest.(check (triple (list string) int int)) "identical" (run cfg1) (run cfg4);
  (* Equijoin too (its K-cipher pass maps over the pool directly). *)
  let records = List.map (fun v -> (v, "rec:" ^ v)) vs in
  let join cfg =
    matches
      (fst
         (session ~cfg ~seed:"par-seed" (Psi.Session.Equijoin { s_records = records; r_values = vr })))
  in
  Alcotest.(check (list (pair string (list string)))) "join identical" (join cfg1) (join cfg4)

let test_parallel_workers_validated () =
  Alcotest.check_raises "workers 0" (Invalid_argument "Protocol.config: workers >= 1")
    (fun () -> ignore (P.config ~workers:0 g64))

(* Pool-size independence across all four protocols: identical results
   AND identical leakage shapes (the full message transcripts, which the
   streamed sends must reproduce byte-for-byte) at every pool size. *)
let views o = (o.Runner.sender_view, o.Runner.receiver_view)

let same_views (sv1, rv1) (sv2, rv2) =
  List.equal Message.equal sv1 sv2 && List.equal Message.equal rv1 rv2

let prop_pool_size_invariance =
  qtest "protocols are pool-size invariant (results + transcripts)" ~count:10 gen_pair
    pair_print (fun (vs, vr) ->
      let records = List.mapi (fun i v -> (v, Printf.sprintf "%s#%d" v i)) vs in
      let run_all workers =
        let cfg = P.config ~workers g64 in
        let oi =
          launch ~seed:"pool"
            (Psi.Intersection.sender cfg ~values:vs)
            (Psi.Intersection.receiver cfg ~values:vr)
        in
        let oj =
          launch ~seed:"pool"
            (Psi.Equijoin.sender cfg ~records)
            (Psi.Equijoin.receiver cfg ~values:vr)
        in
        let os =
          launch ~seed:"pool"
            (Psi.Intersection_size.sender cfg ~values:vs)
            (Psi.Intersection_size.receiver cfg ~values:vr)
        in
        let oz =
          launch ~seed:"pool"
            (Psi.Equijoin_size.sender cfg ~values:vs)
            (Psi.Equijoin_size.receiver cfg ~values:vr)
        in
        ( ( oi.Runner.receiver_result.Psi.Intersection.intersection,
            oj.Runner.receiver_result.Psi.Equijoin.matches,
            os.Runner.receiver_result.Psi.Intersection_size.size,
            oz.Runner.receiver_result.Psi.Equijoin_size.join_size ),
          [ views oi; views oj; views os; views oz ] )
      in
      let base_results, base_views = run_all 1 in
      List.for_all
        (fun workers ->
          let results, views = run_all workers in
          results = base_results && List.for_all2 same_views base_views views)
        [ 2; 4 ])

(* Golden transcripts: SHA-256 of the encoded sender and receiver
   views of all four protocols and of [Aggregate] at seed "kern". The
   four protocols' digests were taken before the move to a single
   30-bit Montgomery kernel, so any change to limb width, kernel or
   arena staging that moved a byte shows up here; [Aggregate]'s were
   taken before it moved onto the shared opening and streamed sends. *)
let view_digest msgs = Crypto.Sha256.hexdigest (String.concat "" (List.map Message.encode msgs))

let golden_views =
  [
    ( Group.Test64,
      [
        ( "intersection",
          "a6997ffa9afb97da46735882bdcff6a2020f4a11d2494221c22adcfa1d899e8a",
          "55ec8279a0c41724cb1a7b1a82ca6460c10509abec7b3bf2e2055b7040a1e7a8" );
        ( "equijoin",
          "fdc00af8fa1a97887cc70bc2cdde062b58757a6c96e982b9a39c25a90f1187bf",
          "d49ea5de14b09b655feb084cfbf919049498229030901b6724aee0c2d7378dec" );
        ( "intersection_size",
          "c221933abe2b741efe7a983ea10ab8259ef4f0fef3bf8e2b2c78a5d04f63db52",
          "be6323d06967940013d7dc46b925299482e8c02a2ff649c7c10fced0c3fdb2e7" );
        ( "equijoin_size",
          "d816de6797cd15d5180ae4d38ca16a14e3bda74a8ba9ef8f9a8faf6f82a06770",
          "44222836e6f7daf32eed1b60022ca4414e697b3eac8208a6ed5d5ca49e414040" );
        ( "aggregate",
          "86f40a6403bacf2f2ab915eedee9b13a836e5f66e674c0c71e6c064da8a81996",
          "6fad6a3393f25a647224150afc5c235ddbd1f0b7db3f2ef384b76ef81efc75fd" );
      ] );
    ( Group.Test256,
      [
        ( "intersection",
          "a40666d372c47fc3b5c613b86b65bd94a57d4d633a139b27dfd050f02f95ec92",
          "c91fa290b0c5fe5f8ecd8ba260707ad9409d93400b6dd66876ed38e76f0ac15f" );
        ( "equijoin",
          "9d20b804c2f2d98903143d6ad7a74d498690a5beb52e8e57ac244116b71a65a0",
          "89da34c5f8937ab5797c8e05e783f30ce20935b9462e4571d748c7036eb04440" );
        ( "intersection_size",
          "1dd79f65ac1a14635fc8c842eb8fb5e0b6c1c233c9ef8086dec7669473c9c5da",
          "480364f42157b4550ff14c3ea65d3a19bf8ebc9d566669a45859e04432b661b0" );
        ( "equijoin_size",
          "1e77ec4bd65675570ac155302cb61c243765f21fcff50314a47614a7da31fc9f",
          "909795a7f1afb82b4a1919decadd2991e6689758a08f5184c3a253371adf0773" );
        ( "aggregate",
          "63bd0e8e2095b458e40d92a8a448f65439842387c594f892e0294a85f16ccf3f",
          "d33cb8869745ea8d5d6b387a63284699a5dd18d27a808ef5e7c6eedd86e6b8e3" );
      ] );
  ]

(* The golden runs of one group: the four protocols and the
   Paillier intersection-sum, each over a fresh channel at seed "kern". *)
let golden_runs cfg =
  let vs = vs1 and vr = vr1 in
  let records = List.mapi (fun i v -> (v, Printf.sprintf "%s#%d" v i)) vs in
  let sums = List.mapi (fun i v -> (v, 10 * (i + 1))) vs in
  [
    ( "intersection",
      views
        (launch ~seed:"kern"
           (Psi.Intersection.sender cfg ~values:vs)
           (Psi.Intersection.receiver cfg ~values:vr)) );
    ( "equijoin",
      views
        (launch ~seed:"kern"
           (Psi.Equijoin.sender cfg ~records)
           (Psi.Equijoin.receiver cfg ~values:vr)) );
    ( "intersection_size",
      views
        (launch ~seed:"kern"
           (Psi.Intersection_size.sender cfg ~values:vs)
           (Psi.Intersection_size.receiver cfg ~values:vr)) );
    ( "equijoin_size",
      views
        (launch ~seed:"kern"
           (Psi.Equijoin_size.sender cfg ~values:vs)
           (Psi.Equijoin_size.receiver cfg ~values:vr)) );
    ( "aggregate",
      views
        (launch ~seed:"kern"
           (Psi.Aggregate.sender cfg ~key_bits:128 ~records:sums)
           (Psi.Aggregate.receiver cfg ~values:vr)) );
  ]

let check_golden ?(label = "") cfg_of =
  List.iter
    (fun (spec, golden) ->
      List.iter2
        (fun (name, sv, rv) (name', (sview, rview)) ->
          assert (name = name');
          let side s = Printf.sprintf "%s%s %s %s" label (Group.name_to_string spec) name s in
          Alcotest.(check string) (side "sender") sv (view_digest sview);
          Alcotest.(check string) (side "receiver") rv (view_digest rview))
        golden
        (golden_runs (cfg_of spec)))
    golden_views

let test_golden_transcripts () = check_golden (fun spec -> P.config (Group.named spec))

(* The element cache is transparent: a fresh cache attached to the
   config (misses on the first protocol, hash hits on the later ones)
   leaves every transcript byte-identical to the golden digests. *)
let test_golden_with_cache () =
  let opened = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (c, dir) ->
          Psi.Ecache.close c;
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        !opened)
    (fun () ->
      check_golden ~label:"cached "
        (fun spec ->
          let dir =
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "psi-golden-cache-%d-%s" (Unix.getpid ())
                 (Group.name_to_string spec))
          in
          let c = Psi.Ecache.open_ ~dir () in
          opened := (c, dir) :: !opened;
          P.config ~ecache:c (Group.named spec)))

(* The executor's 1-bucket plan is the monolithic run: its one-sided
   ops, driven without a handshake, reproduce the golden digests above
   byte for byte — with or without a state_dir, which a 1-bucket run
   never touches. *)
let test_golden_one_bucket () =
  let vs = vs1 and vr = vr1 in
  let records = List.mapi (fun i v -> (v, Printf.sprintf "%s#%d" v i)) vs in
  let ops =
    [
      ("intersection", Psi.Shard.Intersect { s_values = vs; r_values = vr });
      ("equijoin", Psi.Shard.Equijoin { s_records = records; r_values = vr });
      ("intersection_size", Psi.Shard.Intersect_size { s_values = vs; r_values = vr });
      ("equijoin_size", Psi.Shard.Equijoin_size { s_values = vs; r_values = vr });
    ]
  in
  let state_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "psi-one-bucket-%d" (Unix.getpid ()))
  in
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun (spec, golden) ->
          let cfg = P.config (Group.named spec) in
          List.iter2
            (fun (name, sv, rv) (name', op) ->
              assert (name = name');
              let drbg = Crypto.Drbg.create ~seed:"kern" in
              let s_drbg = Crypto.Drbg.split drbg ~label:"sender" in
              let r_drbg = Crypto.Drbg.split drbg ~label:"receiver" in
              let o =
                Runner.run
                  ~sender:(fun ep -> ignore (Psi.Shard.sender_op cfg plan ~drbg:s_drbg ep op))
                  ~receiver:(fun ep ->
                    ignore (Psi.Shard.receiver_op cfg plan ~drbg:r_drbg ep op))
              in
              let side s =
                Printf.sprintf "%s %s %s %s" label (Group.name_to_string spec) name s
              in
              Alcotest.(check string) (side "sender") sv (view_digest o.Runner.sender_view);
              Alcotest.(check string) (side "receiver") rv
                (view_digest o.Runner.receiver_view))
            (List.filter (fun (name, _, _) -> List.mem_assoc name ops) golden)
            ops)
        golden_views)
    [
      ("monolithic", Psi.Shard.monolithic);
      ("state_dir", Psi.Shard.plan ~state_dir ~buckets:1 ());
    ];
  Alcotest.(check bool) "state_dir untouched" false (Sys.file_exists state_dir)

(* ------------------------------------------------------------------ *)
(* Equijoin                                                            *)
(* ------------------------------------------------------------------ *)

let records1 =
  [
    ("beet", "beet-record-1");
    ("beet", "beet-record-2");
    ("corn", "corn-record-1");
    ("apple", "apple-record-1");
    ("dill", "dill-record-1");
  ]

let test_equijoin_basic () =
  let o =
    launch
      (Psi.Equijoin.sender cfg ~records:records1)
      (Psi.Equijoin.receiver cfg ~values:vr1)
  in
  let r = o.Runner.receiver_result in
  Alcotest.(check (list (pair string (list string)))) "matches with ext"
    [ ("beet", [ "beet-record-1"; "beet-record-2" ]); ("corn", [ "corn-record-1" ]) ]
    r.Psi.Equijoin.matches;
  Alcotest.(check int) "|V_S|" 4 r.Psi.Equijoin.v_s_count;
  Alcotest.(check (list string)) "no collisions" [] r.Psi.Equijoin.collisions;
  Alcotest.(check int) "S learns |V_R|" 4 o.Runner.sender_result.Psi.Equijoin.v_r_count

let test_equijoin_no_matches () =
  let r, _ =
    session (Psi.Session.Equijoin { s_records = [ ("x", "rx") ]; r_values = [ "y"; "z" ] })
  in
  Alcotest.(check int) "no matches" 0 (List.length (matches r))

let test_equijoin_empty_sides () =
  let join s_records r_values =
    List.length (matches (fst (session (Psi.Session.Equijoin { s_records; r_values }))))
  in
  Alcotest.(check int) "empty sender" 0 (join [] vr1);
  Alcotest.(check int) "empty receiver" 0 (join records1 [])

let test_equijoin_mul_cipher () =
  let cfg_mul = P.config ~cipher:Crypto.Perfect_cipher.Mul_cipher g256 in
  let r, _ =
    session ~cfg:cfg_mul
      (Psi.Session.Equijoin { s_records = [ ("beet", "r1"); ("fig", "r2") ]; r_values = vr1 })
  in
  Alcotest.(check (list (pair string (list string)))) "mul cipher matches"
    [ ("beet", [ "r1" ]); ("fig", [ "r2" ]) ]
    (matches r)

let test_equijoin_mul_cipher_payload_limit () =
  let cfg_mul = P.config ~cipher:Crypto.Perfect_cipher.Mul_cipher g256 in
  (* A payload beyond one group element must raise (documented limit). *)
  Alcotest.(check bool) "too-long payload raises" true
    (try
       ignore
         (session ~cfg:cfg_mul
            (Psi.Session.Equijoin
               { s_records = [ ("v", String.make 100 'x') ]; r_values = [ "v" ] }));
       false
     with Invalid_argument _ -> true)

let test_equijoin_stream_large_payload () =
  let big = String.make 50_000 'p' in
  let r, _ = session (Psi.Session.Equijoin { s_records = [ ("beet", big) ]; r_values = vr1 }) in
  Alcotest.(check (list (pair string (list string)))) "50KB record round-trips"
    [ ("beet", [ big ]) ]
    (matches r)

let test_equijoin_op_counts () =
  let o =
    launch
      (Psi.Equijoin.sender cfg ~records:records1)
      (Psi.Equijoin.receiver cfg ~values:vr1)
  in
  let s_ops = o.Runner.sender_result.Psi.Equijoin.ops in
  let r_ops = o.Runner.receiver_result.Psi.Equijoin.ops in
  let v_s = 4 and v_r = 4 and inter = 2 in
  let hashes, encryptions, cipher_ops =
    Psi.Cost_model.exact_equijoin_ops ~v_s ~v_r ~intersection:inter
  in
  Alcotest.(check int) "hashes" hashes (s_ops.P.hashes + r_ops.P.hashes);
  Alcotest.(check int) "Ce = 2|V_S| + 5|V_R|" encryptions
    (s_ops.P.encryptions + r_ops.P.encryptions);
  Alcotest.(check int) "K ops = |V_S| + |inter|" cipher_ops
    (s_ops.P.cipher_ops + r_ops.P.cipher_ops)

let test_equijoin_comm_counts () =
  let o =
    launch
      (Psi.Equijoin.sender cfg ~records:records1)
      (Psi.Equijoin.receiver cfg ~values:vr1)
  in
  let v_s = 4 and v_r = 4 in
  (* (|V_S| + 3|V_R|) codewords + |V_S| ciphertexts. *)
  Alcotest.(check int) "S codewords" (v_s + (2 * v_r))
    o.Runner.sender_stats.Wire.Channel.elements_sent;
  Alcotest.(check int) "R codewords" v_r o.Runner.receiver_stats.Wire.Channel.elements_sent

let test_equijoin_ext_pairs_sorted () =
  let o =
    launch
      (Psi.Equijoin.sender cfg ~records:records1)
      (Psi.Equijoin.receiver cfg ~values:vr1)
  in
  match List.find_opt (fun (m : Message.t) -> m.tag = "equijoin/ext") o.Runner.receiver_view with
  | Some { payload = Message.Ciphertext_pairs ps; _ } ->
      Alcotest.(check bool) "ext pairs sorted by key" true (P.is_sorted (List.map fst ps));
      Alcotest.(check int) "|V_S| pairs" 4 (List.length ps)
  | _ -> Alcotest.fail "missing equijoin/ext message"

let test_equijoin_matches_minidb_join () =
  (* End-to-end against the relational oracle: join two small tables. *)
  let open Minidb in
  let l =
    Table.create
      (Schema.make [ Schema.col "k" Value.TInt; Schema.col "a" Value.TText ])
      [
        [| Value.Int 1; Value.Text "x" |];
        [| Value.Int 2; Value.Text "y" |];
        [| Value.Int 3; Value.Text "z" |];
      ]
  in
  let r =
    Table.create
      (Schema.make [ Schema.col "k" Value.TInt; Schema.col "b" Value.TText ])
      [
        [| Value.Int 2; Value.Text "m" |];
        [| Value.Int 2; Value.Text "n" |];
        [| Value.Int 4; Value.Text "o" |];
      ]
  in
  (* S holds [r] (with payload = column b), R holds [l]'s keys. *)
  let records =
    List.map
      (fun row -> (Value.key (Table.get r row "k"), Value.to_string (Table.get r row "b")))
      (Table.rows r)
  in
  let values = List.map Value.key (Table.distinct_values l "k") in
  let res, _ = session (Psi.Session.Equijoin { s_records = records; r_values = values }) in
  let protocol_join_size =
    List.fold_left (fun acc (_, recs) -> acc + List.length recs) 0 (matches res)
  in
  Alcotest.(check int) "join size matches minidb"
    (Relop.equijoin_size l r ~on:("k", "k"))
    protocol_join_size

(* ------------------------------------------------------------------ *)
(* Intersection size                                                   *)
(* ------------------------------------------------------------------ *)

let test_intersection_size_basic () =
  let r, (v_s, v_r) = session (Psi.Session.Intersect_size { s_values = vs1; r_values = vr1 }) in
  Alcotest.(check int) "size" 2 (size r);
  Alcotest.(check int) "|V_S|" 5 v_s;
  Alcotest.(check int) "|V_R|" 4 v_r

let test_intersection_size_cases () =
  List.iter
    (fun (n_s, n_r, overlap) ->
      let vs, vr =
        Psi.Workload.value_sets
          ~seed:(Printf.sprintf "isize-%d-%d-%d" n_s n_r overlap)
          ~n_s ~n_r ~overlap
      in
      let r, _ = session (Psi.Session.Intersect_size { s_values = vs; r_values = vr }) in
      Alcotest.(check int) (Printf.sprintf "%d/%d/%d" n_s n_r overlap) overlap (size r))
    [ (0, 0, 0); (5, 5, 0); (5, 5, 5); (40, 60, 13); (100, 3, 3) ]

let test_intersection_size_z_r_resorted () =
  (* The Z_R message must be re-sorted: otherwise R could align it with
     its own Y_R order and learn which values matched (§5.1). *)
  let o =
    launch
      (Psi.Intersection_size.sender cfg ~values:vs1)
      (Psi.Intersection_size.receiver cfg ~values:vr1)
  in
  let z_r = elements_of_view o.Runner.receiver_view "intersection_size/Z_R" in
  Alcotest.(check bool) "Z_R sorted" true (P.is_sorted z_r);
  Alcotest.(check int) "|Z_R| = |V_R|" 4 (List.length z_r);
  (* And it is a plain element list (unpaired), not pairs. *)
  match List.find_opt (fun (m : Message.t) -> m.tag = "intersection_size/Z_R") o.Runner.receiver_view with
  | Some { payload = Message.Elements _; _ } -> ()
  | _ -> Alcotest.fail "Z_R must be an unpaired element list"

let test_intersection_size_op_counts () =
  let o =
    launch
      (Psi.Intersection_size.sender cfg ~values:vs1)
      (Psi.Intersection_size.receiver cfg ~values:vr1)
  in
  let s = o.Runner.sender_result.Psi.Intersection_size.ops in
  let r = o.Runner.receiver_result.Psi.Intersection_size.ops in
  Alcotest.(check int) "Ce = 2(|V_S|+|V_R|)" (2 * (5 + 4)) (s.P.encryptions + r.P.encryptions)

(* ------------------------------------------------------------------ *)
(* Equijoin size (§5.2)                                                *)
(* ------------------------------------------------------------------ *)

let ms_s = [ "a"; "a"; "a"; "b"; "c"; "c"; "d" ]
let ms_r = [ "a"; "b"; "b"; "c"; "c"; "e" ]

let test_equijoin_size_basic () =
  let r, (v_s, v_r) =
    session (Psi.Session.Equijoin_size { s_values = ms_s; r_values = ms_r })
  in
  (* a: 3*1, b: 1*2, c: 2*2 => 9. *)
  Alcotest.(check int) "join size" 9 (size r);
  Alcotest.(check int) "matches Leakage.join_size"
    (Psi.Leakage.join_size ~r_values:ms_r ~s_values:ms_s)
    (size r);
  Alcotest.(check int) "|T_S.A| multiset" 7 v_s;
  Alcotest.(check int) "|T_R.A| multiset" 6 v_r

let test_equijoin_size_duplicate_distributions () =
  let o =
    launch
      (Psi.Equijoin_size.sender cfg ~values:ms_s)
      (Psi.Equijoin_size.receiver cfg ~values:ms_r)
  in
  (* S's multiset: one value x3 (a), two x1 (b, d), one x2 (c). *)
  Alcotest.(check (list (pair int int))) "R learns S's distribution"
    [ (1, 2); (2, 1); (3, 1) ]
    o.Runner.receiver_result.Psi.Equijoin_size.s_duplicate_distribution;
  (* R's multiset: a x1, e x1, b x2, c x2. *)
  Alcotest.(check (list (pair int int))) "S learns R's distribution"
    [ (1, 2); (2, 2) ]
    o.Runner.sender_result.Psi.Equijoin_size.r_duplicate_distribution

let test_equijoin_size_class_leakage_matches_prediction () =
  let o =
    launch
      (Psi.Equijoin_size.sender cfg ~values:ms_s)
      (Psi.Equijoin_size.receiver cfg ~values:ms_r)
  in
  Alcotest.(check (list (pair (pair int int) int))) "§5.2 leakage matrix"
    (Psi.Leakage.class_intersections ~r_values:ms_r ~s_values:ms_s)
    o.Runner.receiver_result.Psi.Equijoin_size.class_intersections

let test_equijoin_size_no_duplicates_degenerates () =
  (* With all multiplicities 1 the protocol reveals only the size — the
     leakage matrix collapses to a single cell. *)
  let o =
    launch
      (Psi.Equijoin_size.sender cfg ~values:vs1)
      (Psi.Equijoin_size.receiver cfg ~values:vr1)
  in
  Alcotest.(check int) "join size = intersection size" 2
    o.Runner.receiver_result.Psi.Equijoin_size.join_size;
  Alcotest.(check (list (pair (pair int int) int))) "single cell"
    [ ((1, 1), 2) ]
    o.Runner.receiver_result.Psi.Equijoin_size.class_intersections

let test_equijoin_size_randomized () =
  List.iter
    (fun (n, max_dup, seed) ->
      let base_s, base_r = Psi.Workload.value_sets ~seed ~n_s:n ~n_r:n ~overlap:(n / 2) in
      let s = Psi.Workload.multiset ~seed:(seed ^ "s") ~values:base_s ~max_dup in
      let r = Psi.Workload.multiset ~seed:(seed ^ "r") ~values:base_r ~max_dup in
      let res, _ = session (Psi.Session.Equijoin_size { s_values = s; r_values = r }) in
      Alcotest.(check int) (seed ^ ": join size")
        (Psi.Leakage.join_size ~r_values:r ~s_values:s)
        (size res))
    [ (10, 3, "ejs1"); (25, 5, "ejs2"); (40, 2, "ejs3") ]

(* ------------------------------------------------------------------ *)
(* Leakage analysis                                                    *)
(* ------------------------------------------------------------------ *)

let test_leakage_duplicate_classes () =
  Alcotest.(check (list (pair int (list string)))) "classes"
    [ (1, [ "b"; "d" ]); (2, [ "c" ]); (3, [ "a" ]) ]
    (Psi.Leakage.duplicate_classes ms_s)

let test_leakage_unique_dups_identify_everything () =
  (* All duplicate counts distinct: R identifies the whole intersection. *)
  let r_values = [ "x"; "y"; "y"; "z"; "z"; "z" ] in
  let s_values = [ "x"; "y"; "y"; "q" ] in
  Alcotest.(check (list string)) "identified"
    [ "x"; "y" ]
    (Psi.Leakage.identified_values ~r_values ~s_values)

let test_leakage_uniform_dups_identify_nothing () =
  (* All counts equal and only part of R's set is shared: R cannot pin
     down which values are in V_S. *)
  let r_values = [ "x"; "y"; "z" ] in
  let s_values = [ "x"; "y"; "q" ] in
  Alcotest.(check (list string)) "nothing identified" []
    (Psi.Leakage.identified_values ~r_values ~s_values)

let test_leakage_full_class_shared_identifies () =
  (* Every R value of a class is shared: identified despite equal counts. *)
  let r_values = [ "x"; "y" ] in
  let s_values = [ "x"; "y"; "q" ] in
  Alcotest.(check (list string)) "whole class identified" [ "x"; "y" ]
    (Psi.Leakage.identified_values ~r_values ~s_values)

(* ------------------------------------------------------------------ *)
(* §3.1 strawman and the dictionary attack                             *)
(* ------------------------------------------------------------------ *)

let domain_universe =
  (* A small value domain the attacker can exhaust (the paper's point:
     small domains are fully recoverable under the strawman). *)
  vs1 @ vr1 @ [ "quince"; "radish"; "squash" ]

let test_insecure_protocol_correct () =
  let o = Psi.Insecure_hash.run cfg ~sender_values:vs1 ~receiver_values:vr1 () in
  Alcotest.(check (list string)) "intersection still correct" [ "beet"; "corn" ]
    o.Runner.receiver_result.Psi.Insecure_hash.intersection

let test_dictionary_attack_breaks_strawman () =
  let o = Psi.Insecure_hash.run cfg ~sender_values:vs1 ~receiver_values:vr1 () in
  let recovered =
    Psi.Insecure_hash.dictionary_attack cfg ~transcript:o.Runner.receiver_view
      ~candidates:domain_universe
  in
  (* The attacker recovers ALL of V_S — including values outside V_R. *)
  Alcotest.(check (list string)) "V_S fully recovered" (sorted_strings vs1) recovered

let test_dictionary_attack_fails_against_secure_protocol () =
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  let recovered =
    Psi.Insecure_hash.dictionary_attack cfg
      ~transcript:(o.Runner.receiver_view @ o.Runner.sender_view)
      ~candidates:domain_universe
  in
  Alcotest.(check (list string)) "nothing recovered" [] recovered;
  (* Same for the size protocols and the equijoin. *)
  let o2 =
    launch
      (Psi.Intersection_size.sender cfg ~values:vs1)
      (Psi.Intersection_size.receiver cfg ~values:vr1)
  in
  Alcotest.(check (list string)) "nothing from size protocol" []
    (Psi.Insecure_hash.dictionary_attack cfg
       ~transcript:(o2.Runner.receiver_view @ o2.Runner.sender_view)
       ~candidates:domain_universe);
  let o3 =
    launch
      (Psi.Equijoin.sender cfg ~records:records1)
      (Psi.Equijoin.receiver cfg ~values:vr1)
  in
  Alcotest.(check (list string)) "nothing from equijoin" []
    (Psi.Insecure_hash.dictionary_attack cfg
       ~transcript:(o3.Runner.receiver_view @ o3.Runner.sender_view)
       ~candidates:domain_universe)

(* ------------------------------------------------------------------ *)
(* Simulators (the proofs of Statements 2 and 6, executed)             *)
(* ------------------------------------------------------------------ *)

let sim_rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"simulator-tests")

(* Structural profile of a view: tags, element counts, validity. *)
let profile cfg view =
  List.map
    (fun (m : Message.t) ->
      let es = P.elements_of m.Message.payload in
      List.iter
        (fun e ->
          Alcotest.(check bool) "valid group element" true
            (match Group.decode_elt cfg.P.group e with
             | Ok x -> Group.is_element cfg.P.group x
             | Error _ -> false))
        es;
      (m.Message.tag, List.length es))
    view

let pooled_bit_fraction view =
  let ones = ref 0 and bits = ref 0 in
  List.iter
    (fun (m : Message.t) ->
      List.iter
        (fun e ->
          String.iter
            (fun c ->
              let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
              ones := !ones + pop (Char.code c);
              bits := !bits + 8)
            e)
        (P.elements_of m.Message.payload))
    view;
  float_of_int !ones /. float_of_int (Stdlib.max 1 !bits)

let test_simulator_sender_view () =
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  let simulated = Psi.Simulator.intersection_sender_view cfg ~rng:sim_rng ~v_r_count:4 in
  Alcotest.(check (list (pair string int))) "same shape" (profile cfg o.Runner.sender_view)
    (profile cfg simulated);
  (match simulated with
  | [ m ] -> Alcotest.(check bool) "sorted" true (P.is_sorted (P.elements_of m.Message.payload))
  | _ -> Alcotest.fail "one message");
  (* No ciphertext coincides between real and simulated (fresh keys). *)
  let elements v = List.concat_map (fun (m : Message.t) -> P.elements_of m.Message.payload) v in
  Alcotest.(check bool) "disjoint ciphertexts" true
    (List.for_all (fun e -> not (List.mem e (elements o.Runner.sender_view))) (elements simulated))

let test_simulator_receiver_view_structure () =
  let o =
    launch
      (Psi.Intersection.sender cfg ~values:vs1)
      (Psi.Intersection.receiver cfg ~values:vr1)
  in
  (* What R sent (public to the distinguisher). *)
  let y_r =
    match Wire.Runner.(o.sender_view) with
    | [ m ] -> P.elements_of m.Message.payload
    | _ -> Alcotest.fail "expected one message in S's view"
  in
  let simulated =
    Psi.Simulator.intersection_receiver_view cfg ~rng:sim_rng ~y_r
      ~intersection:o.Runner.receiver_result.Psi.Intersection.intersection ~v_s_count:5
  in
  Alcotest.(check (list (pair string int))) "same shape"
    (profile cfg o.Runner.receiver_view)
    (profile cfg simulated);
  (* Statistical smoke: both views look like random bits. *)
  let real_frac = pooled_bit_fraction o.Runner.receiver_view in
  let sim_frac = pooled_bit_fraction simulated in
  Alcotest.(check bool)
    (Printf.sprintf "bit balance real=%.3f sim=%.3f" real_frac sim_frac)
    true
    (Float.abs (real_frac -. 0.5) < 0.05 && Float.abs (sim_frac -. 0.5) < 0.05)

let test_simulator_receiver_view_consistency () =
  (* The proof's consistency requirement: R, processing the SIMULATED
     view with its real key and values, must output exactly the correct
     intersection. We play R's decision procedure by hand. *)
  let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"sim-consistency") in
  let e_r = Crypto.Commutative.gen_key g64 ~rng in
  let v_r = P.dedup vr1 in
  let ops = P.new_ops () in
  let encoded =
    P.hash_values cfg ops v_r
    |> List.map (fun (v, h) -> (P.encode cfg (Crypto.Commutative.encrypt g64 e_r h), v))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let expected = plain_intersection vs1 vr1 in
  let simulated =
    Psi.Simulator.intersection_receiver_view cfg ~rng:sim_rng
      ~y_r:(List.map fst encoded) ~intersection:expected ~v_s_count:5
  in
  match simulated with
  | [ { Message.payload = Message.Elements y_s; _ }; { Message.payload = Message.Elements y_r_enc; _ } ]
    ->
      let z_s =
        List.map
          (fun y -> P.encode cfg (Crypto.Commutative.encrypt g64 e_r (P.decode cfg y)))
          y_s
      in
      let decision =
        List.map2
          (fun z (_, v) -> (v, List.mem z z_s))
          y_r_enc encoded
        |> List.filter_map (fun (v, hit) -> if hit then Some v else None)
        |> List.sort String.compare
      in
      Alcotest.(check (list string)) "R's output on the simulated view" expected decision
  | _ -> Alcotest.fail "unexpected simulated view shape"

let test_simulator_intersection_size_consistency () =
  let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"sim-size") in
  let e_r = Crypto.Commutative.gen_key g64 ~rng in
  List.iter
    (fun (v_r_count, v_s_count, size) ->
      let view =
        Psi.Simulator.intersection_size_receiver_view cfg ~rng:sim_rng ~receiver_key:e_r
          ~v_r_count ~v_s_count ~size ()
      in
      match view with
      | [ { Message.payload = Message.Elements y_s; _ }; { Message.payload = Message.Elements z_r; _ } ]
        ->
          Alcotest.(check int) "|Y_S|" v_s_count (List.length y_s);
          Alcotest.(check int) "|Z_R|" v_r_count (List.length z_r);
          Alcotest.(check bool) "Z_R sorted" true (P.is_sorted z_r);
          let z_s =
            List.map
              (fun y -> P.encode cfg (Crypto.Commutative.encrypt g64 e_r (P.decode cfg y)))
              y_s
          in
          let matches = List.length (List.filter (fun z -> List.mem z z_s) z_r) in
          Alcotest.(check int)
            (Printf.sprintf "R computes size %d/%d/%d" v_r_count v_s_count size)
            size matches
      | _ -> Alcotest.fail "unexpected simulated view shape")
    [ (4, 5, 2); (10, 10, 0); (10, 10, 10); (7, 3, 3); (1, 1, 1) ]

let test_simulator_rejects_impossible_size () =
  Alcotest.(check bool) "size > min rejected" true
    (try
       ignore
         (Psi.Simulator.intersection_size_receiver_view cfg ~rng:sim_rng ~v_r_count:2
            ~v_s_count:3 ~size:3 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Robustness: malformed peers cause clean failures                    *)
(* ------------------------------------------------------------------ *)

(* Drive R's side of a protocol (the intersection's by default) against
   a scripted fake sender and return R's outcome. *)
let intersection_receiver ~rng ep = ignore (Psi.Intersection.receiver cfg ~rng ~values:vr1 ep)

let against_fake_sender ?(receiver = intersection_receiver) script =
  let s_ep, r_ep = Wire.Channel.create () in
  let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"robust") in
  let t =
    Thread.create
      (fun () ->
        (try script s_ep with _ -> ());
        Wire.Channel.close s_ep)
      ()
  in
  let result = try Ok (receiver ~rng r_ep) with e -> Error e in
  Thread.join t;
  result

(* Each malformed input ends in the one class that names it: a framing
   fault is a [Protocol_error] (a reconnect may cure it), an element
   outside the group a [Peer_violation] (none can). *)
let expect_error ~cls name result =
  match (cls, result) with
  | `Protocol, Error (Wire.Protocol_error msg) | `Violation, Error (Wire.Peer_violation msg)
    ->
      Alcotest.(check bool) (name ^ ": " ^ msg) true (String.length msg > 0)
  | _, Error e -> Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
  | _, Ok _ -> Alcotest.failf "%s: protocol accepted malformed input" name

let expect_protocol_error = expect_error ~cls:`Protocol
let expect_peer_violation = expect_error ~cls:`Violation

let test_robust_wrong_tag () =
  expect_protocol_error "wrong tag"
    (against_fake_sender (fun ep ->
         let _ = Wire.Channel.recv ep in
         Wire.Channel.send ep
           (Message.make ~tag:"equijoin/pairs" (Message.Elements []))))

(* The count check itself must fire, not a later shape or decode error. *)
let expect_count_mismatch name result =
  let mentions_count msg =
    let n = String.length msg and k = String.length "count mismatch" in
    let rec at i = i + k <= n && (String.sub msg i k = "count mismatch" || at (i + 1)) in
    at 0
  in
  match result with
  | Error (Wire.Protocol_error msg) when mentions_count msg -> ()
  | Error e -> Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)
  | Ok () -> Alcotest.failf "%s: protocol accepted a short list" name

let test_robust_count_mismatch () =
  let recv_y_r ep = P.elements_of (Wire.Channel.recv ep).Message.payload in
  expect_count_mismatch "intersection Y_R_enc"
    (against_fake_sender (fun ep ->
         let yr = recv_y_r ep in
         Wire.Channel.send ep (Message.make ~tag:"intersection/Y_S" (Message.Elements []));
         (* Echo one element short. *)
         Wire.Channel.send ep
           (Message.make ~tag:"intersection/Y_R_enc" (Message.Elements (List.tl yr)))));
  expect_count_mismatch "equijoin pairs"
    (against_fake_sender
       ~receiver:(fun ~rng ep -> ignore (Psi.Equijoin.receiver cfg ~rng ~values:vr1 ep))
       (fun ep ->
         let yr = recv_y_r ep in
         Wire.Channel.send ep
           (Message.make ~tag:"equijoin/pairs"
              (Message.Element_pairs (List.map (fun y -> (y, y)) (List.tl yr))))));
  expect_count_mismatch "aggregate Y_R_enc"
    (against_fake_sender
       ~receiver:(fun ~rng ep -> ignore (Psi.Aggregate.receiver cfg ~rng ~values:vr1 ep))
       (fun ep ->
         let yr = recv_y_r ep in
         let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"robust-paillier") in
         let pub, _ = Crypto.Paillier.keygen ~rng ~bits:128 in
         Wire.Channel.send ep
           (Message.make ~tag:"aggregate/pub"
              (Message.Elements [ Crypto.Paillier.encode_public pub ]));
         Wire.Channel.send ep
           (Message.make ~tag:"aggregate/Y_R_enc" (Message.Elements (List.tl yr)))))

let test_robust_out_of_range_element () =
  expect_peer_violation "out-of-range element"
    (against_fake_sender (fun ep ->
         let _ = Wire.Channel.recv ep in
         (* An all-zero "element" is not in [1, p-1]. *)
         let bogus = String.make (Group.element_bytes g64) '\x00' in
         Wire.Channel.send ep
           (Message.make ~tag:"intersection/Y_S" (Message.Elements [ bogus ]))))

let test_robust_wrong_width_element () =
  expect_peer_violation "wrong width"
    (against_fake_sender (fun ep ->
         let _ = Wire.Channel.recv ep in
         Wire.Channel.send ep
           (Message.make ~tag:"intersection/Y_S" (Message.Elements [ "short" ]))))

(* p-1 is in range but no residue (p = 3 mod 4): outside QR_p, where
   the commutative cipher is not defined. It must be refused wherever
   R puts its key on what S sent — Z_S in the intersection, the peeled
   Y_R_enc in the intersection-sum. *)
let test_robust_non_residue_element () =
  let p_minus_1 = P.encode cfg (Bignum.Nat.sub (Group.p g64) Bignum.Nat.one) in
  expect_peer_violation "p-1 in intersection/Y_S"
    (against_fake_sender (fun ep ->
         let _ = Wire.Channel.recv ep in
         Wire.Channel.send ep
           (Message.make ~tag:"intersection/Y_S" (Message.Elements [ p_minus_1 ]))));
  expect_peer_violation "p-1 in aggregate/Y_R_enc"
    (against_fake_sender
       ~receiver:(fun ~rng ep -> ignore (Psi.Aggregate.receiver cfg ~rng ~values:vr1 ep))
       (fun ep ->
         let yr = P.elements_of (Wire.Channel.recv ep).Message.payload in
         let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"robust-paillier") in
         let pub, _ = Crypto.Paillier.keygen ~rng ~bits:128 in
         Wire.Channel.send ep
           (Message.make ~tag:"aggregate/pub"
              (Message.Elements [ Crypto.Paillier.encode_public pub ]));
         Wire.Channel.send ep
           (Message.make ~tag:"aggregate/Y_R_enc"
              (Message.Elements (p_minus_1 :: List.tl yr)))))

(* A Paillier key that does not decode ("\x02" is even and far too
   small) is the peer's violation too, not a local bug. *)
let test_robust_bad_paillier_key () =
  expect_peer_violation "aggregate/pub = \"\\x02\""
    (against_fake_sender
       ~receiver:(fun ~rng ep -> ignore (Psi.Aggregate.receiver cfg ~rng ~values:vr1 ep))
       (fun ep ->
         let _ = Wire.Channel.recv ep in
         Wire.Channel.send ep
           (Message.make ~tag:"aggregate/pub" (Message.Elements [ "\x02" ]))))

let test_robust_wrong_payload_shape () =
  expect_protocol_error "pairs instead of elements"
    (against_fake_sender (fun ep ->
         let _ = Wire.Channel.recv ep in
         Wire.Channel.send ep
           (Message.make ~tag:"intersection/Y_S" (Message.Element_pairs [ ("a", "b") ]))))

let test_robust_early_close () =
  expect_protocol_error "peer vanishes"
    (against_fake_sender (fun ep ->
         let _ = Wire.Channel.recv ep in
         ()))

(* §3.2.2's collision check. QR_23 has 11 elements, so 12 distinct
   values must share a hash, and so an encoding. *)
let tiny_cfg = P.config (Group.of_prime (Bignum.Nat.of_int 23))
let crowded = List.init 12 (Printf.sprintf "v%02d")

let collision_failure =
  Failure "protocol error: hash collision within this party's value set (use a larger group)"

let test_own_layer_collision () =
  let rng = Crypto.Drbg.to_rng (Crypto.Drbg.create ~seed:"tiny") in
  let key = Crypto.Commutative.gen_key tiny_cfg.P.group ~rng in
  Alcotest.check_raises "own_layer" collision_failure (fun () ->
      ignore (P.own_layer tiny_cfg (P.new_ops ()) key crowded));
  (* Eleven values whose hashes are all distinct pass the check. *)
  let distinct =
    List.fold_left
      (fun (seen, kept) v ->
        let h = snd (List.hd (P.hash_values tiny_cfg (P.new_ops ()) [ v ])) in
        if List.exists (Group.equal_elt h) seen then (seen, kept) else (h :: seen, v :: kept))
      ([], [])
      (List.init 200 (Printf.sprintf "w%03d"))
    |> snd
  in
  Alcotest.(check int) "QR_23 is covered" 11 (List.length distinct);
  Alcotest.(check int) "distinct hashes pass" 11
    (List.length (P.own_layer tiny_cfg (P.new_ops ()) key distinct))

let test_session_collision_fails () =
  match
    Psi.Session.run tiny_cfg ~seed:"tiny"
      [ Psi.Session.Intersect { s_values = [ "x" ]; r_values = crowded } ]
      ()
  with
  | _ -> Alcotest.fail "a colliding value set returned a result"
  | exception e ->
      Alcotest.(check string) "the collision failure" (Printexc.to_string collision_failure)
        (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Cost model (§6) and circuit baseline (Appendix A)                   *)
(* ------------------------------------------------------------------ *)

let close ?(tol = 0.05) expected actual =
  Float.abs (actual -. expected) <= tol *. Float.abs expected

let test_cost_model_doc_sharing_paper_numbers () =
  (* §6.2.1: 10 x 100 documents of 1000 words. *)
  let e =
    Psi.Doc_sharing.estimate Psi.Cost_model.paper_params ~n_r:10 ~n_s:100 ~d_r:1000 ~d_s:1000
  in
  Alcotest.(check bool) "4e6 Ce" true (close 4e6 e.Psi.Cost_model.encryptions);
  (* 4e6 * 0.02 / 10 = 8000 s ~ 2.2 hours. *)
  Alcotest.(check bool) "~2 hours" true (close 8000. e.Psi.Cost_model.comp_seconds);
  Alcotest.(check bool) "~3 Gbits" true (close 3.07e9 ~tol:0.03 e.Psi.Cost_model.comm_bits);
  (* ~33 minutes on a T1. *)
  Alcotest.(check bool) "~35 minutes" true
    (e.Psi.Cost_model.comm_seconds > 30. *. 60. && e.Psi.Cost_model.comm_seconds < 36. *. 60.)

let test_cost_model_medical_paper_numbers () =
  (* §6.2.2: |V_R| = |V_S| = 1 million. *)
  let e = Psi.Medical.estimate Psi.Cost_model.paper_params ~v_r:1_000_000 ~v_s:1_000_000 in
  Alcotest.(check bool) "8e6 Ce" true (close 8e6 e.Psi.Cost_model.encryptions);
  (* 8e6 * 0.02 / 10 = 16000 s ~ 4.4 hours. *)
  Alcotest.(check bool) "~4 hours" true (close 16000. e.Psi.Cost_model.comp_seconds);
  Alcotest.(check bool) "~8 Gbits" true (close 8.19e9 ~tol:0.03 e.Psi.Cost_model.comm_bits);
  (* ~1.5 hours on a T1. *)
  Alcotest.(check bool) "~1.5 hours" true
    (e.Psi.Cost_model.comm_seconds > 1.3 *. 3600. && e.Psi.Cost_model.comm_seconds < 1.6 *. 3600.)

let test_cost_model_formulas () =
  let p = Psi.Cost_model.paper_params in
  let e = Psi.Cost_model.estimate p Psi.Cost_model.Intersection ~v_s:100 ~v_r:50 in
  Alcotest.(check bool) "Ce" true (close 300. e.Psi.Cost_model.encryptions);
  Alcotest.(check bool) "bits" true (close (200. *. 1024.) e.Psi.Cost_model.comm_bits);
  let j = Psi.Cost_model.estimate p Psi.Cost_model.Equijoin ~v_s:100 ~v_r:50 in
  Alcotest.(check bool) "join Ce = 2*100 + 5*50" true (close 450. j.Psi.Cost_model.encryptions);
  Alcotest.(check bool) "join bits = (100+150)k + 100k'" true
    (close (350. *. 1024.) j.Psi.Cost_model.comm_bits)

let test_obs_telemetry_matches_cost_model () =
  (* End-to-end through the telemetry layer: run a small intersection
     with Obs enabled and check the observed Ce count equals the §6.1
     prediction exactly — both at the protocol level (psi.* counters via
     Obs_report) and at the crypto level (every modexp the Commutative
     module performed). *)
  Obs.Runtime.with_enabled (fun () ->
      Obs.Metrics.reset ();
      let vs, vr = Psi.Workload.value_sets ~seed:"obs-psi" ~n_s:9 ~n_r:7 ~overlap:3 in
      ignore (session ~seed:"t:obs" (Psi.Session.Intersect { s_values = vs; r_values = vr }));
      let snap = Obs.Metrics.snapshot () in
      let p = { Psi.Cost_model.paper_params with k_bits = 8 * Group.element_bytes g64 } in
      let c = Psi.Obs_report.model_vs_measured p Psi.Cost_model.Intersection snap in
      Alcotest.(check (float 0.)) "predicted Ce = 2(|V_S|+|V_R|)" 32.
        c.Obs.Report.predicted_ce;
      Alcotest.(check (float 0.)) "observed = predicted, exactly" 0.
        c.Obs.Report.ce_rel_error;
      let crypto_modexps =
        Option.value ~default:0 (Obs.Metrics.find_counter snap "crypto.commutative.encrypts")
        + Option.value ~default:0
            (Obs.Metrics.find_counter snap "crypto.commutative.decrypts")
      in
      Alcotest.(check int) "crypto layer agrees" 32 crypto_modexps;
      (* Framing (tags, length varints) only ever adds bytes, so the
         wire can't undershoot the model. *)
      Alcotest.(check bool) "wire bits >= model bits" true
        (c.Obs.Report.observed_bits >= c.Obs.Report.predicted_bits);
      Obs.Metrics.reset ())

(* The executor publishes every op's psi.<op>.* tallies, each party its
   own share. For each of the four ops, the snapshot of Session.run at
   k = 1, of Session.run at k = 4, and of a one-sided
   sender_op/receiver_op pair over a socketpair (the psid shape) carries
   the Ce, |V_S| and |V_R| of the party functions' own reports; at
   k = 1 the wire bytes are the handshake-free monolithic transcript,
   and the §6.1 model agrees with the Session.run snapshot. *)
let test_executor_publishes_run_tallies () =
  (* 256-bit codewords keep framing within the model's tolerance. *)
  let cfg = cfg256 in
  let vs, vr = Psi.Workload.value_sets ~seed:"tallies" ~n_s:40 ~n_r:30 ~overlap:10 in
  let records = List.map (fun v -> (v, "rec:" ^ v)) vs in
  (* ((model op, its tally name), session op, party reports as
     (Ce, v_s, v_r, bytes)) *)
  let party (o : _ Runner.outcome) s_ops r_ops v_s v_r =
    ((P.total s_ops r_ops).P.encryptions, v_s, v_r, o.Runner.total_bytes)
  in
  let cases =
    [
      ( (Psi.Cost_model.Intersection, "intersection"),
        Psi.Session.Intersect { s_values = vs; r_values = vr },
        let o =
          launch
            (Psi.Intersection.sender cfg ~values:vs)
            (Psi.Intersection.receiver cfg ~values:vr)
        in
        let s = o.Runner.sender_result and r = o.Runner.receiver_result in
        party o s.Psi.Intersection.ops r.Psi.Intersection.ops r.Psi.Intersection.v_s_count
          s.Psi.Intersection.v_r_count );
      ( (Psi.Cost_model.Intersection_size, "intersection_size"),
        Psi.Session.Intersect_size { s_values = vs; r_values = vr },
        let o =
          launch
            (Psi.Intersection_size.sender cfg ~values:vs)
            (Psi.Intersection_size.receiver cfg ~values:vr)
        in
        let s = o.Runner.sender_result and r = o.Runner.receiver_result in
        party o s.Psi.Intersection_size.ops r.Psi.Intersection_size.ops
          r.Psi.Intersection_size.v_s_count s.Psi.Intersection_size.v_r_count );
      ( (Psi.Cost_model.Equijoin, "equijoin"),
        Psi.Session.Equijoin { s_records = records; r_values = vr },
        let o =
          launch (Psi.Equijoin.sender cfg ~records) (Psi.Equijoin.receiver cfg ~values:vr)
        in
        let s = o.Runner.sender_result and r = o.Runner.receiver_result in
        party o s.Psi.Equijoin.ops r.Psi.Equijoin.ops r.Psi.Equijoin.v_s_count
          s.Psi.Equijoin.v_r_count );
      ( (Psi.Cost_model.Equijoin_size, "equijoin_size"),
        Psi.Session.Equijoin_size { s_values = vs; r_values = vr },
        let o =
          launch
            (Psi.Equijoin_size.sender cfg ~values:vs)
            (Psi.Equijoin_size.receiver cfg ~values:vr)
        in
        let s = o.Runner.sender_result and r = o.Runner.receiver_result in
        party o s.Psi.Equijoin_size.ops r.Psi.Equijoin_size.ops
          r.Psi.Equijoin_size.v_s_multiset_size s.Psi.Equijoin_size.v_r_multiset_size );
    ]
  in
  let snapshot run =
    Obs.Runtime.with_enabled (fun () ->
        Obs.Metrics.reset ();
        run ();
        let snap = Obs.Metrics.snapshot () in
        Obs.Metrics.reset ();
        snap)
  in
  let one_sided op () =
    let a, b = Wire.Transport.Socket.pair () in
    let s_ep = Wire.Channel.of_transport a and r_ep = Wire.Channel.of_transport b in
    let drbg = Crypto.Drbg.create ~seed:"psid-shape" in
    let plan = Psi.Shard.monolithic in
    Fun.protect
      ~finally:(fun () ->
        Wire.Channel.close s_ep;
        Wire.Channel.close r_ep)
      (fun () ->
        ignore
          (Runner.run_on (s_ep, r_ep)
             ~sender:(fun ep ->
               Psi.Handshake.respond cfg ep;
               Psi.Shard.sender_op cfg plan ~drbg:(Crypto.Drbg.split drbg ~label:"sender") ep op)
             ~receiver:(fun ep ->
               Psi.Handshake.initiate cfg ep;
               Psi.Shard.receiver_op cfg plan
                 ~drbg:(Crypto.Drbg.split drbg ~label:"receiver")
                 ep op)))
  in
  List.iter
    (fun ((model_op, tally), op, (ce, v_s, v_r, bytes)) ->
      let name = Psi.Shard.op_name op in
      let check_snapshot label ~k1 snap =
        let key m = Printf.sprintf "psi.%s.%s" tally m in
        let counter m = Option.value ~default:(-1) (Obs.Metrics.find_counter snap (key m)) in
        let gauge m =
          Option.fold ~none:(-1) ~some:int_of_float (Obs.Metrics.find_gauge snap (key m))
        in
        let label m = Printf.sprintf "%s %s: %s" name label m in
        Alcotest.(check int) (label "runs") 1 (counter "runs");
        Alcotest.(check int) (label "Ce") ce (counter "encryptions");
        Alcotest.(check int) (label "v_s") v_s (gauge "v_s");
        Alcotest.(check int) (label "v_r") v_r (gauge "v_r");
        if k1 then Alcotest.(check int) (label "wire bytes") bytes (counter "wire_bytes")
      in
      let run_session ?shard () =
        let report = Psi.Session.run cfg ?shard [ op ] () in
        Alcotest.(check (list (pair int int)))
          (name ^ ": peer sizes") [ (v_s, v_r) ] report.Psi.Session.peer_sizes
      in
      let k1 = snapshot (fun () -> run_session ()) in
      check_snapshot "k=1" ~k1:true k1;
      check_snapshot "k=4" ~k1:false
        (snapshot (fun () -> run_session ~shard:(Psi.Shard.plan ~buckets:4 ()) ()));
      check_snapshot "one-sided" ~k1:true (snapshot (one_sided op));
      let params =
        let k_bits = 8 * Group.element_bytes g256 in
        match Obs.Metrics.find_histogram k1 "psi.equijoin.ext_bytes" with
        | Some h when model_op = Psi.Cost_model.Equijoin ->
            {
              Psi.Cost_model.paper_params with
              k_bits;
              k'_bits = int_of_float ((8. *. Obs.Metrics.mean h) +. 0.5);
            }
        | _ -> { Psi.Cost_model.paper_params with k_bits }
      in
      let c = Psi.Obs_report.model_vs_measured params model_op k1 in
      Alcotest.(check (float 0.)) (name ^ ": Ce = model") 0. c.Obs.Report.ce_rel_error;
      Alcotest.(check bool) (name ^ ": within tolerance") true c.Obs.Report.within_tolerance)
    cases

let test_tracing_leaves_transcript_identical () =
  (* The observability layer must never change what crosses the wire:
     with trace context, span collection and the flight recorder all
     switched on, the Message-level transcript of a seeded run is
     identical to the untraced run's — no new wire bytes, ever. *)
  let run () =
    let o =
      launch ~seed:"t:traced"
        (Psi.Intersection.sender cfg ~values:vs1)
        (Psi.Intersection.receiver cfg ~values:vr1)
    in
    (o.Runner.sender_view, o.Runner.receiver_view)
  in
  let plain_s, plain_r = run () in
  Obs.Ring.install ();
  Obs.Context.set_trace_id "feedbeeffeedbeeffeedbeeffeedbeef";
  Obs.Context.set_party "R";
  let (traced_s, traced_r), _roots, _snap =
    Fun.protect
      ~finally:(fun () ->
        Obs.Context.clear ();
        Obs.Ring.uninstall ())
      (fun () -> Obs.trace run)
  in
  Alcotest.(check bool) "sender view identical under tracing" true
    (List.equal Message.equal plain_s traced_s);
  Alcotest.(check bool) "receiver view identical under tracing" true
    (List.equal Message.equal plain_r traced_r)

(* In a traced in-process run each party's subtree is stamped with its
   own label: the sender runs on a domain of its own when a core is
   free, and the context is per thread across domains. *)
let test_traced_parties_distinct () =
  let _, roots, _ =
    Fun.protect ~finally:Obs.Context.clear (fun () ->
        Obs.trace (fun () ->
            Psi.Session.run cfg ~seed:"t:parties"
              [ Psi.Session.Intersect { s_values = vs1; r_values = vr1 } ]
              ()))
  in
  let party name =
    match List.filter (fun r -> Obs.Span.name r = name) roots with
    | [ r ] -> (List.assoc_opt Obs.Context.party_attr (Obs.Span.attrs r), Obs.Span.thread r)
    | rs -> Alcotest.failf "%d %s roots" (List.length rs) name
  in
  let s_party, s_thread = party "party:sender" and r_party, r_thread = party "party:receiver" in
  Alcotest.(check (option string)) "sender label" (Some "S") s_party;
  Alcotest.(check (option string)) "receiver label" (Some "R") r_party;
  Alcotest.(check bool) "distinct threads" true (s_thread <> r_thread)

(* perfbench attributes each span's self time to a per-layer metric by
   name: hash, encrypt-own and encrypt-peer to crypto, reorder and match
   to core. A traced in-process run of every two-party protocol opens
   all five under its party roots. *)
let test_layer_span_vocabulary () =
  let records = List.mapi (fun i v -> (v, Printf.sprintf "%s#%d" v i)) vs1 in
  let sums = List.mapi (fun i v -> (v, i + 1)) vs1 in
  let run sender receiver () = ignore (launch ~seed:"t:spans" sender receiver) in
  let cases =
    [
      ( "intersection",
        run (Psi.Intersection.sender cfg ~values:vs1) (Psi.Intersection.receiver cfg ~values:vr1)
      );
      ( "intersection_size",
        run
          (Psi.Intersection_size.sender cfg ~values:vs1)
          (Psi.Intersection_size.receiver cfg ~values:vr1) );
      ("equijoin", run (Psi.Equijoin.sender cfg ~records) (Psi.Equijoin.receiver cfg ~values:vr1));
      ( "equijoin_size",
        run (Psi.Equijoin_size.sender cfg ~values:vs1) (Psi.Equijoin_size.receiver cfg ~values:vr1)
      );
      ( "aggregate",
        run
          (Psi.Aggregate.sender cfg ~key_bits:128 ~records:sums)
          (Psi.Aggregate.receiver cfg ~values:vr1) );
    ]
  in
  List.iter
    (fun (name, f) ->
      let (), roots, _ = Obs.trace f in
      let opened = Hashtbl.create 16 in
      let rec walk s =
        Hashtbl.replace opened (Obs.Span.name s) ();
        List.iter walk (Obs.Span.children s)
      in
      List.iter
        (fun r ->
          if String.starts_with ~prefix:"party:" (Obs.Span.name r) then
            List.iter walk (Obs.Span.children r))
        roots;
      List.iter
        (fun span ->
          Alcotest.(check bool) (Printf.sprintf "%s opens %s" name span) true
            (Hashtbl.mem opened span))
        [ "hash"; "encrypt-own"; "encrypt-peer"; "reorder"; "match" ])
    cases

(* A run started from inside a party while every party slot is held
   runs its sender on a systhread instead of a domain. Its transcript
   is byte-identical to the top-level run's and to the golden digest. *)
let test_nested_run_falls_back () =
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let cap = Int.max 0 (Domain.recommended_domain_count () - 1) in
  let op = Psi.Shard.Intersect { s_values = vs1; r_values = vr1 } in
  let run () =
    let drbg = Crypto.Drbg.create ~seed:"kern" in
    let s_drbg = Crypto.Drbg.split drbg ~label:"sender" in
    let r_drbg = Crypto.Drbg.split drbg ~label:"receiver" in
    let o =
      Runner.run
        ~sender:(fun ep -> ignore (Psi.Shard.sender_op cfg Psi.Shard.monolithic ~drbg:s_drbg ep op))
        ~receiver:(fun ep ->
          ignore (Psi.Shard.receiver_op cfg Psi.Shard.monolithic ~drbg:r_drbg ep op))
    in
    (view_digest o.Runner.sender_view, view_digest o.Runner.receiver_view)
  in
  let golden =
    match List.assoc Group.Test64 golden_views with
    | ("intersection", s, r) :: _ -> (s, r)
    | _ -> Alcotest.fail "golden intersection digests"
  in
  Obs.Runtime.with_enabled (fun () ->
      let d0 = counter "pool.party_domains" and t0 = counter "pool.party_thread_fallbacks" in
      let top = run () in
      (* Hold all slots but one: the outer sender takes the last. *)
      let release = Atomic.make false in
      let park () = while not (Atomic.get release) do Thread.delay 0.001 done in
      let held = List.init (Int.max 0 (cap - 1)) (fun _ -> Parallel.Pool.fork park) in
      let nested =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set release true;
            List.iter Parallel.Pool.await held)
          (fun () -> (Runner.run ~sender:(fun _ -> run ()) ~receiver:ignore).Runner.sender_result)
      in
      Alcotest.(check (pair string string)) "top-level run = golden" golden top;
      Alcotest.(check (pair string string)) "nested run = golden" golden nested;
      (* Top, held slots and outer sender on domains; the nested sender
         on a thread. A one-core host runs all three on threads. *)
      Alcotest.(check int) "party domains" (if cap = 0 then 0 else cap + 1)
        (counter "pool.party_domains" - d0);
      Alcotest.(check int) "thread fallbacks" (if cap = 0 then 3 else 1)
        (counter "pool.party_thread_fallbacks" - t0))

let test_collision_probability_paper_example () =
  (* §3.2.2: 1024-bit hash values, half are quadratic residues, n = 1
     million => collision probability ~= 10^12 / 10^307 = 10^-295. *)
  let mantissa, e = Psi.Cost_model.collision_probability ~modulus_bits:1024 ~n:1e6 in
  (* The paper rounds N = 2^1023 to 10^307 and reports ~10^-295; the
     exact exponent is -297..-296. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.2fe%d ~ 1e-295" mantissa e)
    true
    (e >= -297 && e <= -295);
  Alcotest.(check bool) "mantissa sane" true (mantissa >= 1. && mantissa < 10.);
  (* Sanity at small scale against direct evaluation: 64-bit modulus,
     n = 2^20: x = n^2/2^64 ~ 6e-8. *)
  let m2, e2 = Psi.Cost_model.collision_probability ~modulus_bits:64 ~n:(2. ** 20.) in
  let direct = (2. ** 40.) /. (2. ** 64.) in
  Alcotest.(check bool) "agrees with direct computation" true
    (Float.abs ((m2 *. (10. ** float_of_int e2)) -. direct) /. direct < 0.01)

let test_circuit_optimal_m_matches_paper () =
  List.iter
    (fun (n, m_expected) ->
      let m, _ = Psi.Circuit_baseline.optimal_m n in
      Alcotest.(check int) (Printf.sprintf "m for n=%g" n) m_expected m)
    [ (1e4, 11); (1e6, 19); (1e8, 32) ]

let test_circuit_gate_counts_match_paper () =
  List.iter
    (fun (n, f_expected) ->
      let _, f = Psi.Circuit_baseline.optimal_m n in
      Alcotest.(check bool)
        (Printf.sprintf "f(%g) = %g (got %g)" n f_expected f)
        true (close f_expected f))
    [ (1e4, 2.3e8); (1e6, 7.3e10); (1e8, 1.9e13) ];
  List.iter
    (fun (n, bf) ->
      Alcotest.(check bool) "brute force" true
        (close bf (Psi.Circuit_baseline.brute_force_gates n)))
    [ (1e4, 6.3e9); (1e6, 6.3e13); (1e8, 6.3e17) ]

let test_circuit_computation_table () =
  let rows = Psi.Circuit_baseline.computation_table [ 1e4; 1e6; 1e8 ] in
  List.iter2
    (fun (input, eval, ours) (row : Psi.Circuit_baseline.computation_row) ->
      Alcotest.(check bool) "input" true (close input row.Psi.Circuit_baseline.circuit_input_ce);
      Alcotest.(check bool) "eval" true (close eval row.Psi.Circuit_baseline.circuit_eval_cr);
      Alcotest.(check bool) "ours" true (close ours row.Psi.Circuit_baseline.ours_ce))
    [ (5e4, 4.7e8, 4e4); (5e6, 1.5e11, 4e6); (5e8, 3.8e13, 4e8) ]
    rows

let test_circuit_communication_table () =
  let rows = Psi.Circuit_baseline.communication_table [ 1e4; 1e6; 1e8 ] in
  List.iter2
    (fun (input, tables, ours) (row : Psi.Circuit_baseline.communication_row) ->
      Alcotest.(check bool) "input" true (close input row.Psi.Circuit_baseline.circuit_input_bits);
      Alcotest.(check bool) "tables" true
        (close tables row.Psi.Circuit_baseline.circuit_tables_bits);
      Alcotest.(check bool) "ours" true (close ours row.Psi.Circuit_baseline.ours_bits))
    [ (1.02e9, 6.0e10, 3.07e7); (1.02e11, 1.88e13, 3.07e9); (1.02e13, 4.9e15, 3.07e11) ]
    rows

let test_circuit_headline_claim () =
  (* "For n = 1 million, 144 days versus 0.5 hours": the circuit needs
     ~1000x more communication time than our protocol. *)
  let row = List.hd (Psi.Circuit_baseline.communication_table [ 1e6 ]) in
  let circuit_s =
    Psi.Circuit_baseline.transfer_seconds
      (row.Psi.Circuit_baseline.circuit_input_bits +. row.Psi.Circuit_baseline.circuit_tables_bits)
  in
  let ours_s = Psi.Circuit_baseline.transfer_seconds row.Psi.Circuit_baseline.ours_bits in
  Alcotest.(check bool) "circuit ~140 days" true (circuit_s > 120. *. 86400. && circuit_s < 160. *. 86400.);
  Alcotest.(check bool) "ours ~0.5 hours" true (ours_s > 0.4 *. 3600. && ours_s < 0.7 *. 3600.);
  Alcotest.(check bool) ">1000x gap" true (circuit_s /. ours_s > 1000.)

(* ------------------------------------------------------------------ *)
(* Workload generators                                                 *)
(* ------------------------------------------------------------------ *)

let test_workload_value_sets () =
  let vs, vr = Psi.Workload.value_sets ~seed:"w" ~n_s:30 ~n_r:20 ~overlap:7 in
  Alcotest.(check int) "|V_S|" 30 (List.length (List.sort_uniq String.compare vs));
  Alcotest.(check int) "|V_R|" 20 (List.length (List.sort_uniq String.compare vr));
  Alcotest.(check int) "overlap" 7 (List.length (plain_intersection vs vr));
  Alcotest.(check bool) "overlap too large rejected" true
    (try
       ignore (Psi.Workload.value_sets ~seed:"w" ~n_s:3 ~n_r:2 ~overlap:3);
       false
     with Invalid_argument _ -> true)

let test_workload_documents () =
  let docs =
    Psi.Workload.documents ~seed:"d" ~n_docs:5 ~words_per_doc:50 ~vocabulary:200 ~prefix:"r"
  in
  Alcotest.(check int) "5 docs" 5 (List.length docs);
  List.iter
    (fun (d : Psi.Workload.document) ->
      Alcotest.(check int) "50 distinct words" 50
        (List.length (List.sort_uniq String.compare d.Psi.Workload.words)))
    docs;
  (* Determinism. *)
  let again =
    Psi.Workload.documents ~seed:"d" ~n_docs:5 ~words_per_doc:50 ~vocabulary:200 ~prefix:"r"
  in
  Alcotest.(check bool) "deterministic" true (docs = again)

let test_workload_medical_tables () =
  let t_r, t_s, truth =
    Psi.Workload.medical_tables ~seed:"m" ~n_patients:500 ~p_pattern:0.3 ~p_drug:0.5
      ~p_reaction:0.1
  in
  Alcotest.(check int) "T_R rows" 500 (Minidb.Table.cardinality t_r);
  Alcotest.(check int) "T_S rows" 500 (Minidb.Table.cardinality t_s);
  (* Ground truth agrees with the reference SQL evaluation. *)
  let c = Psi.Medical.plaintext_counts ~t_r ~t_s in
  Alcotest.(check int) "cell pr" truth.Psi.Workload.pattern_and_reaction c.Psi.Medical.pattern_and_reaction;
  Alcotest.(check int) "cell pn" truth.Psi.Workload.pattern_no_reaction c.Psi.Medical.pattern_no_reaction;
  Alcotest.(check int) "cell nr" truth.Psi.Workload.no_pattern_and_reaction c.Psi.Medical.no_pattern_and_reaction;
  Alcotest.(check int) "cell nn" truth.Psi.Workload.no_pattern_no_reaction c.Psi.Medical.no_pattern_no_reaction

(* ------------------------------------------------------------------ *)
(* Applications                                                        *)
(* ------------------------------------------------------------------ *)

let test_app_doc_sharing () =
  let docs_r =
    Psi.Workload.documents ~seed:"app-doc" ~n_docs:3 ~words_per_doc:40 ~vocabulary:2000 ~prefix:"R"
  in
  let docs_s =
    Psi.Workload.documents ~seed:"app-doc" ~n_docs:3 ~words_per_doc:40 ~vocabulary:2000 ~prefix:"S"
  in
  let docs_r, docs_s = Psi.Workload.plant_similar_pair ~seed:"app-doc" docs_r docs_s ~fraction_shared:0.8 in
  let threshold = 0.2 in
  let report = Psi.Doc_sharing.run cfg ~docs_r ~docs_s ~threshold () in
  let expected = Psi.Doc_sharing.plaintext_matches ~docs_r ~docs_s ~threshold () in
  Alcotest.(check (list (pair string string))) "matches = plaintext oracle" expected
    (List.map (fun (p : Psi.Doc_sharing.pair_result) -> (p.Psi.Doc_sharing.r_doc, p.Psi.Doc_sharing.s_doc))
       report.Psi.Doc_sharing.matches);
  Alcotest.(check bool) "planted pair found" true (List.length report.Psi.Doc_sharing.matches >= 1);
  Alcotest.(check int) "all pairs explored" 9 (List.length report.Psi.Doc_sharing.all_pairs)

let test_app_medical () =
  let t_r, t_s, truth =
    Psi.Workload.medical_tables ~seed:"app-med" ~n_patients:300 ~p_pattern:0.25 ~p_drug:0.6
      ~p_reaction:0.15
  in
  let report = Psi.Medical.run cfg ~t_r ~t_s () in
  let c = report.Psi.Medical.counts in
  Alcotest.(check int) "pattern+reaction" truth.Psi.Workload.pattern_and_reaction
    c.Psi.Medical.pattern_and_reaction;
  Alcotest.(check int) "pattern only" truth.Psi.Workload.pattern_no_reaction
    c.Psi.Medical.pattern_no_reaction;
  Alcotest.(check int) "reaction only" truth.Psi.Workload.no_pattern_and_reaction
    c.Psi.Medical.no_pattern_and_reaction;
  Alcotest.(check int) "neither" truth.Psi.Workload.no_pattern_no_reaction
    c.Psi.Medical.no_pattern_no_reaction;
  Alcotest.(check bool) "bytes accounted" true (report.Psi.Medical.total_bytes > 0)

let test_app_medical_ce_budget () =
  (* Figure 2's four protocols cost 2(|V_R|+|V_S|) * 2 Ce in total. *)
  let t_r, t_s, _ =
    Psi.Workload.medical_tables ~seed:"budget" ~n_patients:200 ~p_pattern:0.5 ~p_drug:0.5
      ~p_reaction:0.2
  in
  let report = Psi.Medical.run cfg ~t_r ~t_s () in
  let v_r = 200 in
  let v_s =
    Minidb.Table.cardinality (Minidb.Relop.select_eq t_s "drug" (Minidb.Value.Bool true))
  in
  Alcotest.(check int) "total Ce = 4(|V_R| + |V_S|)"
    (4 * (v_r + v_s))
    report.Psi.Medical.ops.P.encryptions

(* ------------------------------------------------------------------ *)
(* Incremental sessions: persistent cache + snapshot diffs             *)
(* ------------------------------------------------------------------ *)

let tmp_dir_counter = ref 0

let fresh_cache_dir () =
  incr tmp_dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "psi-incr-test-%d-%d" (Unix.getpid ()) !tmp_dir_counter)

let session_result_equal a b =
  match (a, b) with
  | Psi.Session.Values x, Psi.Session.Values y -> List.equal String.equal x y
  | Psi.Session.Size x, Psi.Session.Size y -> Int.equal x y
  | Psi.Session.Matches x, Psi.Session.Matches y ->
      List.equal
        (fun (v1, r1) (v2, r2) -> String.equal v1 v2 && List.equal String.equal r1 r2)
        x y
  | _ -> false

let all_four_ops ~r_values =
  [
    Psi.Session.Intersect { s_values = vs1; r_values };
    Psi.Session.Intersect_size { s_values = vs1; r_values };
    Psi.Session.Equijoin { s_records = records1; r_values };
    Psi.Session.Equijoin_size { s_values = vs1; r_values };
  ]

(* The tentpole's correctness claim: a warm (cached) re-run produces
   results identical to a cold run of the same inputs, for all four
   protocols, with identical wire traffic. *)
let test_incremental_identical_to_cold () =
  let dir = fresh_cache_dir () in
  let seed = "t:incremental" in
  let run ops = Psi.Session.run_incremental cfg ~seed ~cache_dir:dir ops () in
  let cold = run (all_four_ops ~r_values:vr1) in
  Alcotest.(check bool) "first run is cold" true cold.Psi.Session.incremental.cold;
  Alcotest.(check int) "run 1" 1 cold.Psi.Session.incremental.run_id;
  (* Mutate the receiver set: drop "fig", add two new values. *)
  let vr' = [ "beet"; "corn"; "grape"; "hazel"; "iris" ] in
  let warm = run (all_four_ops ~r_values:vr') in
  Alcotest.(check bool) "second run is warm" false warm.Psi.Session.incremental.cold;
  Alcotest.(check int) "run 2" 2 warm.Psi.Session.incremental.run_id;
  (* Reference: the exact same session without any cache. *)
  let reference = Psi.Session.run cfg ~seed (all_four_ops ~r_values:vr') () in
  Alcotest.(check bool) "results byte-identical to cold" true
    (List.equal session_result_equal reference.Psi.Session.results
       warm.Psi.Session.report.Psi.Session.results);
  Alcotest.(check int) "wire traffic identical" reference.Psi.Session.total_bytes
    warm.Psi.Session.report.Psi.Session.total_bytes

(* Warm-run hit/miss counts are deterministic (unlike a cold run's,
   where the two parties race to populate the shared hash namespace):
   a receiver-side delta of [d] values costs exactly 3d misses on the
   intersection — hash d, encrypt-own d, sender re-encrypt d. *)
let test_incremental_miss_counts_match_delta () =
  let dir = fresh_cache_dir () in
  let seed = "t:misses" in
  let op r_values = [ Psi.Session.Intersect { s_values = vs1; r_values } ] in
  ignore (Psi.Session.run_incremental cfg ~seed ~cache_dir:dir (op vr1) ());
  let vr' = [ "beet"; "corn"; "grape"; "huckle" ] in
  let warm = Psi.Session.run_incremental cfg ~seed ~cache_dir:dir (op vr') () in
  let i = warm.Psi.Session.incremental in
  let n_s = 5 and n_r = 4 and d = 1 in
  Alcotest.(check int) "added" d i.Psi.Session.added;
  Alcotest.(check int) "removed" 1 i.Psi.Session.removed;
  Alcotest.(check int) "unchanged" (n_s + n_r - 1) i.Psi.Session.unchanged;
  Alcotest.(check int) "misses = 3·|Δ|" (3 * d) i.Psi.Session.misses;
  Alcotest.(check int) "hits = 3(n_s + n_r) - 3·|Δ|"
    ((3 * (n_s + n_r)) - (3 * d))
    i.Psi.Session.hits;
  (* Ce actually paid on the warm run: own-encrypt + peer re-encrypt. *)
  Alcotest.(check int) "warm Ce = 2·|Δ|" (2 * d)
    warm.Psi.Session.report.Psi.Session.ops.P.encryptions

(* `Fresh keys miss every cached ciphertext by construction; only the
   key-independent hashing amortizes. *)
let test_incremental_fresh_keys_invalidate () =
  let dir = fresh_cache_dir () in
  let seed = "t:fresh" in
  let op = [ Psi.Session.Intersect { s_values = vs1; r_values = vr1 } ] in
  let run () = Psi.Session.run_incremental cfg ~seed ~keys:`Fresh ~cache_dir:dir op () in
  ignore (run ());
  let warm = run () in
  let n = 5 + 4 in
  let i = warm.Psi.Session.incremental in
  (* Unchanged inputs, but the key policy rotated the exponents: all
     2(n_s+n_r) encryption lookups miss, all n_s+n_r hash lookups hit. *)
  Alcotest.(check int) "hash hits only" n i.Psi.Session.hits;
  Alcotest.(check int) "all ciphertexts recomputed" (2 * n) i.Psi.Session.misses;
  Alcotest.(check int) "full Ce paid" (2 * n)
    warm.Psi.Session.report.Psi.Session.ops.P.encryptions;
  let reference = Psi.Session.run cfg ~seed:(seed ^ "/run-2") op () in
  Alcotest.(check bool) "results still correct" true
    (List.equal session_result_equal reference.Psi.Session.results
       warm.Psi.Session.report.Psi.Session.results)

(* A damaged cache degrades to recompute with identical results. *)
let test_incremental_survives_cache_damage () =
  let dir = fresh_cache_dir () in
  let seed = "t:damage" in
  let op = [ Psi.Session.Intersect { s_values = vs1; r_values = vr1 } ] in
  ignore (Psi.Session.run_incremental cfg ~seed ~cache_dir:dir op ());
  (* Flip a byte in the middle of the cache file. *)
  let path = Filename.concat dir "ecache.psi" in
  let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let mid = Bytes.length data / 2 in
  Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Bytes.to_string data));
  let warm = Psi.Session.run_incremental cfg ~seed ~cache_dir:dir op () in
  let reference = Psi.Session.run cfg ~seed op () in
  Alcotest.(check bool) "results unharmed" true
    (List.equal session_result_equal reference.Psi.Session.results
       warm.Psi.Session.report.Psi.Session.results)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "psi"
    [
      ( "intersection",
        [
          Alcotest.test_case "basic" `Quick test_intersection_basic;
          Alcotest.test_case "disjoint" `Quick test_intersection_disjoint;
          Alcotest.test_case "identical" `Quick test_intersection_identical;
          Alcotest.test_case "subset" `Quick test_intersection_subset;
          Alcotest.test_case "empty sides" `Quick test_intersection_empty_sides;
          Alcotest.test_case "input deduplication" `Quick test_intersection_dedups_input;
          Alcotest.test_case "binary/unicode/long values" `Quick test_intersection_binary_values;
          Alcotest.test_case "randomized sizes" `Slow test_intersection_randomized;
          Alcotest.test_case "256-bit group" `Quick test_intersection_larger_group;
          Alcotest.test_case "deterministic given seed" `Quick test_intersection_deterministic_given_seed;
        ] );
      ( "intersection-costs",
        [
          Alcotest.test_case "op counts = §6.1" `Quick test_intersection_op_counts;
          Alcotest.test_case "comm counts = §6.1" `Quick test_intersection_comm_counts;
        ] );
      ( "intersection-security",
        [
          Alcotest.test_case "sender view shape" `Quick test_intersection_sender_view_shape;
          Alcotest.test_case "no plaintext or raw hash on wire" `Quick
            test_intersection_transcript_reveals_no_plaintext;
          Alcotest.test_case "transcripts differ across seeds" `Quick
            test_intersection_views_differ_across_seeds;
        ] );
      ( "property-oracles",
        [
          prop_intersection_oracle;
          prop_intersection_size_oracle;
          prop_equijoin_size_oracle;
          prop_equijoin_oracle;
          prop_aggregate_oracle;
        ] );
      ( "parallelism",
        [
          Alcotest.test_case "protocols agree across worker counts" `Quick
            test_parallel_protocols_same_results;
          Alcotest.test_case "worker validation" `Quick test_parallel_workers_validated;
          prop_pool_size_invariance;
          Alcotest.test_case "golden transcript digests" `Quick test_golden_transcripts;
          Alcotest.test_case "golden digests with a cache attached" `Quick
            test_golden_with_cache;
          Alcotest.test_case "1-bucket plan = golden digests" `Quick test_golden_one_bucket;
          Alcotest.test_case "nested run falls back to a thread, same transcript" `Quick
            test_nested_run_falls_back;
        ] );
      ( "equijoin",
        [
          Alcotest.test_case "basic with multi-record ext" `Quick test_equijoin_basic;
          Alcotest.test_case "no matches" `Quick test_equijoin_no_matches;
          Alcotest.test_case "empty sides" `Quick test_equijoin_empty_sides;
          Alcotest.test_case "Mul cipher (Example 2)" `Quick test_equijoin_mul_cipher;
          Alcotest.test_case "Mul cipher payload limit" `Quick test_equijoin_mul_cipher_payload_limit;
          Alcotest.test_case "Stream cipher 50KB record" `Quick test_equijoin_stream_large_payload;
          Alcotest.test_case "op counts = §6.1" `Quick test_equijoin_op_counts;
          Alcotest.test_case "comm counts = §6.1" `Quick test_equijoin_comm_counts;
          Alcotest.test_case "ext pairs sorted" `Quick test_equijoin_ext_pairs_sorted;
          Alcotest.test_case "matches minidb join" `Quick test_equijoin_matches_minidb_join;
        ] );
      ( "intersection-size",
        [
          Alcotest.test_case "basic" `Quick test_intersection_size_basic;
          Alcotest.test_case "size sweep" `Slow test_intersection_size_cases;
          Alcotest.test_case "Z_R re-sorted and unpaired" `Quick test_intersection_size_z_r_resorted;
          Alcotest.test_case "op counts" `Quick test_intersection_size_op_counts;
        ] );
      ( "equijoin-size",
        [
          Alcotest.test_case "basic multiset join size" `Quick test_equijoin_size_basic;
          Alcotest.test_case "duplicate distributions" `Quick test_equijoin_size_duplicate_distributions;
          Alcotest.test_case "class leakage = prediction" `Quick
            test_equijoin_size_class_leakage_matches_prediction;
          Alcotest.test_case "no duplicates degenerates" `Quick test_equijoin_size_no_duplicates_degenerates;
          Alcotest.test_case "randomized" `Slow test_equijoin_size_randomized;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "duplicate classes" `Quick test_leakage_duplicate_classes;
          Alcotest.test_case "unique dups identify" `Quick test_leakage_unique_dups_identify_everything;
          Alcotest.test_case "uniform dups hide" `Quick test_leakage_uniform_dups_identify_nothing;
          Alcotest.test_case "fully shared class identifies" `Quick
            test_leakage_full_class_shared_identifies;
        ] );
      ( "strawman-attack",
        [
          Alcotest.test_case "strawman computes intersection" `Quick test_insecure_protocol_correct;
          Alcotest.test_case "dictionary attack recovers V_S" `Quick test_dictionary_attack_breaks_strawman;
          Alcotest.test_case "attack fails vs secure protocols" `Quick
            test_dictionary_attack_fails_against_secure_protocol;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "matching configs agree" `Quick (fun () ->
              let o =
                Runner.run
                  ~sender:(fun ep -> Psi.Handshake.respond cfg ep)
                  ~receiver:(fun ep -> Psi.Handshake.initiate cfg ep)
              in
              Alcotest.(check int) "one message each way" 2
                (o.Runner.sender_stats.Wire.Channel.messages_sent
                + o.Runner.receiver_stats.Wire.Channel.messages_sent));
          Alcotest.test_case "group mismatch detected" `Quick (fun () ->
              Alcotest.(check bool) "fails" true
                (try
                   ignore
                     (Runner.run
                        ~sender:(fun ep -> Psi.Handshake.respond cfg256 ep)
                        ~receiver:(fun ep -> Psi.Handshake.initiate cfg ep));
                   false
                 with Wire.Peer_violation _ -> true));
          Alcotest.test_case "domain mismatch detected" `Quick (fun () ->
              let cfg_b = P.config ~domain:"other" g64 in
              Alcotest.(check bool) "fails" true
                (try
                   ignore
                     (Runner.run
                        ~sender:(fun ep -> Psi.Handshake.respond cfg_b ep)
                        ~receiver:(fun ep -> Psi.Handshake.initiate cfg ep));
                   false
                 with Wire.Peer_violation _ -> true));
          Alcotest.test_case "cipher mismatch detected" `Quick (fun () ->
              let cfg_b = P.config ~cipher:Crypto.Perfect_cipher.Mul_cipher g64 in
              Alcotest.(check bool) "fails" true
                (try
                   ignore
                     (Runner.run
                        ~sender:(fun ep -> Psi.Handshake.respond cfg_b ep)
                        ~receiver:(fun ep -> Psi.Handshake.initiate cfg ep));
                   false
                 with Wire.Peer_violation _ -> true));
          Alcotest.test_case "workers do not affect fingerprint" `Quick (fun () ->
              Alcotest.(check string) "equal"
                (Psi.Handshake.fingerprint (P.config ~workers:1 g64))
                (Psi.Handshake.fingerprint (P.config ~workers:8 g64)));
        ] );
      ( "session",
        [
          Alcotest.test_case "handshake + three protocols, one channel" `Quick (fun () ->
              let report =
                Psi.Session.run cfg
                  [
                    Psi.Session.Intersect { s_values = vs1; r_values = vr1 };
                    Psi.Session.Intersect_size { s_values = vs1; r_values = vr1 };
                    Psi.Session.Equijoin
                      { s_records = records1; r_values = vr1 };
                    Psi.Session.Equijoin_size
                      { s_values = [ "a"; "a"; "b" ]; r_values = [ "a"; "c" ] };
                  ]
                  ()
              in
              match report.Psi.Session.results with
              | [ Psi.Session.Values inter; Psi.Session.Size sz;
                  Psi.Session.Matches m; Psi.Session.Size jsz ] ->
                  Alcotest.(check (list string)) "intersect" [ "beet"; "corn" ] inter;
                  Alcotest.(check int) "size" 2 sz;
                  Alcotest.(check int) "join matches" 2 (List.length m);
                  Alcotest.(check int) "join size" 2 jsz;
                  Alcotest.(check bool) "bytes accumulate" true
                    (report.Psi.Session.total_bytes > 0)
              | _ -> Alcotest.fail "wrong result shapes");
          Alcotest.test_case "session ops accounting" `Quick (fun () ->
              let report =
                Psi.Session.run cfg
                  [ Psi.Session.Intersect { s_values = vs1; r_values = vr1 } ]
                  ()
              in
              (* Handshake adds no encryptions; counts match a plain run. *)
              Alcotest.(check int) "Ce" (2 * (5 + 4)) report.Psi.Session.ops.P.encryptions);
        ] );
      ( "incremental",
        [
          Alcotest.test_case "warm run identical to cold (all four protocols)" `Quick
            test_incremental_identical_to_cold;
          Alcotest.test_case "miss counts match the delta" `Quick
            test_incremental_miss_counts_match_delta;
          Alcotest.test_case "`Fresh keys invalidate by construction" `Quick
            test_incremental_fresh_keys_invalidate;
          Alcotest.test_case "cache damage degrades to recompute" `Quick
            test_incremental_survives_cache_damage;
        ] );
      ( "proof-simulators",
        [
          Alcotest.test_case "sender view simulator (Stmt 2)" `Quick test_simulator_sender_view;
          Alcotest.test_case "receiver view simulator: structure" `Quick
            test_simulator_receiver_view_structure;
          Alcotest.test_case "receiver view simulator: consistency" `Quick
            test_simulator_receiver_view_consistency;
          Alcotest.test_case "size simulator: consistency (Stmt 6)" `Quick
            test_simulator_intersection_size_consistency;
          Alcotest.test_case "size simulator: validation" `Quick
            test_simulator_rejects_impossible_size;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "wrong tag rejected" `Quick test_robust_wrong_tag;
          Alcotest.test_case "count mismatch rejected" `Quick test_robust_count_mismatch;
          Alcotest.test_case "out-of-range element rejected" `Quick test_robust_out_of_range_element;
          Alcotest.test_case "wrong-width element rejected" `Quick test_robust_wrong_width_element;
          Alcotest.test_case "non-residue element rejected" `Quick
            test_robust_non_residue_element;
          Alcotest.test_case "undecodable Paillier key rejected" `Quick
            test_robust_bad_paillier_key;
          Alcotest.test_case "wrong payload shape rejected" `Quick test_robust_wrong_payload_shape;
          Alcotest.test_case "early close fails cleanly" `Quick test_robust_early_close;
          Alcotest.test_case "own-layer collision raises" `Quick test_own_layer_collision;
          Alcotest.test_case "colliding session fails" `Quick test_session_collision_fails;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "§6.2.1 document sharing numbers" `Quick
            test_cost_model_doc_sharing_paper_numbers;
          Alcotest.test_case "§6.2.2 medical numbers" `Quick test_cost_model_medical_paper_numbers;
          Alcotest.test_case "§6.1 formulas" `Quick test_cost_model_formulas;
          Alcotest.test_case "telemetry matches §6.1" `Quick
            test_obs_telemetry_matches_cost_model;
          Alcotest.test_case "tracing leaves transcript identical" `Quick
            test_tracing_leaves_transcript_identical;
          Alcotest.test_case "traced parties carry distinct labels" `Quick
            test_traced_parties_distinct;
          Alcotest.test_case "per-layer span vocabulary" `Quick test_layer_span_vocabulary;
          Alcotest.test_case "§3.2.2 collision probability" `Quick
            test_collision_probability_paper_example;
          Alcotest.test_case "executor publishes run tallies" `Quick
            test_executor_publishes_run_tallies;
        ] );
      ( "circuit-baseline",
        [
          Alcotest.test_case "optimal m = paper" `Quick test_circuit_optimal_m_matches_paper;
          Alcotest.test_case "gate counts = paper table" `Quick test_circuit_gate_counts_match_paper;
          Alcotest.test_case "computation table (A.2)" `Quick test_circuit_computation_table;
          Alcotest.test_case "communication table (A.2)" `Quick test_circuit_communication_table;
          Alcotest.test_case "144 days vs 0.5 hours" `Quick test_circuit_headline_claim;
        ] );
      ( "workload",
        [
          Alcotest.test_case "value sets" `Quick test_workload_value_sets;
          Alcotest.test_case "documents" `Quick test_workload_documents;
          Alcotest.test_case "medical tables vs reference SQL" `Quick test_workload_medical_tables;
        ] );
      ( "applications",
        [
          Alcotest.test_case "document sharing = oracle" `Slow test_app_doc_sharing;
          Alcotest.test_case "medical counts = ground truth" `Slow test_app_medical;
          Alcotest.test_case "medical Ce budget" `Slow test_app_medical_ce_budget;
        ] );
    ]
