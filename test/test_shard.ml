(* Executor suite: the bucket partition is stable and uniform enough,
   the sharded result is identical to the monolithic one for all four
   protocols across bucket counts (deterministic and property-based),
   k > 1 transcripts match golden digests, spilled inputs stream back
   to the same answer while an empty list never reuses a run's own
   re-spill, a killed run resumes at per-bucket granularity (with or
   without a state_dir), and the sharded transcript leaks only bucket
   sizes and a constant-shape resume frame beyond the monolithic
   shape. *)

module Session = Psi.Session
module Shard = Psi.Shard
module P = Psi.Protocol
module Runner = Wire.Runner
module Message = Wire.Message
module Channel = Wire.Channel
module Fault = Wire.Fault
module Transport = Wire.Transport

let cfg = P.config ~domain:"shard-test" (Crypto.Group.named Crypto.Group.Test64)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psi-shard-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  rm d;
  d

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
        (fun (v1, r1) (v2, r2) -> String.equal v1 v2 && List.equal String.equal r1 r2)
        x y
  | (Session.Values _ | Session.Size _ | Session.Matches _), _ -> false

let result_pp fmt = function
  | Session.Values vs -> Format.fprintf fmt "Values [%s]" (String.concat "; " vs)
  | Session.Size n -> Format.fprintf fmt "Size %d" n
  | Session.Matches ms -> Format.fprintf fmt "Matches (%d values)" (List.length ms)

let result_t = Alcotest.testable result_pp result_equal

(* ------------------------------------------------------------------ *)
(* Bucket assignment                                                   *)
(* ------------------------------------------------------------------ *)

let test_bucket_of_stable () =
  let vs = List.init 200 (fun i -> Printf.sprintf "elem-%d" i) in
  List.iter
    (fun k ->
      let assign = List.map (Shard.bucket_of cfg ~buckets:k) vs in
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "bucket in range (k=%d)" k)
            true
            (b >= 0 && b < k))
        assign;
      (* A pure function of the element: recomputing (in any order)
         gives the same assignment. *)
      let again = List.rev_map (Shard.bucket_of cfg ~buckets:k) (List.rev vs) in
      Alcotest.(check (list int)) (Printf.sprintf "stable (k=%d)" k) assign again)
    [ 1; 2; 4; 16; 64 ]

let test_bucket_of_covers () =
  (* Hash uniformity: 200 elements over 4 buckets leave none empty. *)
  let vs = List.init 200 (fun i -> Printf.sprintf "elem-%d" i) in
  let seen = Array.make 4 0 in
  List.iter (fun v -> seen.(Shard.bucket_of cfg ~buckets:4 v) <- 1) vs;
  Alcotest.(check int) "all buckets hit" 4 (Array.fold_left ( + ) 0 seen)

(* ------------------------------------------------------------------ *)
(* Sharded = monolithic, all four protocols                            *)
(* ------------------------------------------------------------------ *)

let test_parity_all_protocols () =
  let plain = Session.run cfg ~seed:"shard-parity" all_ops () in
  List.iter
    (fun k ->
      let sharded =
        Session.run cfg ~seed:"shard-parity"
          ~shard:(Shard.plan ~buckets:k ())
          all_ops ()
      in
      Alcotest.(check (list result_t))
        (Printf.sprintf "results (k=%d)" k)
        plain.Session.results sharded.Session.results;
      (* Total crypto work is identical: the partition reshuffles the
         elements but every element is hashed and encrypted exactly as
         often as in the monolithic run. *)
      Alcotest.(check int)
        (Printf.sprintf "encryptions (k=%d)" k)
        plain.Session.ops.P.encryptions sharded.Session.ops.P.encryptions)
    [ 1; 4; 16 ]

let test_parity_with_state_dir () =
  let plain = Session.run cfg ~seed:"shard-spill-parity" all_ops () in
  let dir = fresh_dir () in
  let sharded =
    Session.run cfg ~seed:"shard-spill-parity"
      ~shard:(Shard.plan ~state_dir:dir ~buckets:5 ())
      all_ops ()
  in
  Alcotest.(check (list result_t)) "results" plain.Session.results sharded.Session.results

let test_shard_run_report () =
  let r =
    Shard.run cfg ~seed:"shard-report"
      (Shard.plan ~buckets:4 ())
      (Shard.Intersect { s_values; r_values })
  in
  (match r.Shard.result with
  | Shard.Values vs ->
      Alcotest.(check (list string)) "intersection" [ "banana"; "cherry"; "fig" ] vs
  | _ -> Alcotest.fail "expected Values");
  let st = r.Shard.receiver_stats in
  Alcotest.(check int) "buckets" 4 st.Shard.buckets;
  Alcotest.(check int)
    "sizes sum to |V_R|"
    (List.length (P.dedup r_values))
    (List.fold_left ( + ) 0 st.Shard.sizes);
  Alcotest.(check int) "cold run starts at 0" 0 st.Shard.start

(* Golden transcripts at k = 4: SHA-256 of the encoded sender and
   receiver views of all four ops through the one-sided executor ops,
   in memory and with a fresh spilled state_dir (whose epoch counter
   starts at 1, so its resume tokens differ). Taken before the session
   and shard engines merged into one executor. *)
let view_digest msgs = Crypto.Sha256.hexdigest (String.concat "" (List.map Message.encode msgs))

let golden_k4 =
  [
    ( "in memory",
      (fun () -> Shard.plan ~buckets:4 ()),
      [
        ( "c2ccb9bdeb728b44b140d61abfee5502a379644cad43b3527cf417c2f20cde13",
          "971356d0fe26cfdf71f3a57a559854f9c95a8e9aacbf3b11ea04ee9a4574ef51" );
        ( "30f7cce1fa6531ee5bb5c11b88ae67b34999b49dfa0441b42d8968fbddb8117b",
          "aaa350013c2d0b6e192ab256e8d44a64cb21ae0561f5109bdf26f85a71ccfacf" );
        ( "accc7a6e9742773bd7e214cf47d33aa26f97f07dc3bbee9fe0e1c0fbec8ea5b9",
          "208d2c66c651bafa0321866a3fc24ae1ce4643688a96c01416b89b69158e69bb" );
        ( "a80651c7168e65d8e64ad0d20a13cdf7852acd44a9ea33600de5c7a88ad16c45",
          "5d4c611d11349e371149cf10218c14a42055d7975f3ca534b86d95528a7f4266" );
      ] );
    ( "spilled",
      (fun () -> Shard.plan ~state_dir:(fresh_dir ()) ~buckets:4 ()),
      [
        ( "6a9f93d9e1349c4c453d159d80c3f044f43bb5db67403c86791f61b4d395820e",
          "426716934f61e43acfa8f1d96eca5d35320ddc413065c48870bf7e130aedfa77" );
        ( "2cba8bb1a66dcfa0e59acbfbbb1adb08d0968f24a8b4bd41f4095ed2bc5e3bf8",
          "d47bd5a3c8ddb98e13f00018316f6f49cd5a13137f06fc8c35bd625f0621de39" );
        ( "cfde9703180f2fa972a36e81a1868c134d313e864589935ec25b47a7590a5d1c",
          "eb7cea5681c5b8d654f37f877f66ceed2fd6a5c609451a4eb7590e7ce17c3a4a" );
        ( "d7d165108ba887766639d9972b30c7c54467aec525d90d9dc0c790e897f809d2",
          "cbd3bf1960f383a9855bad40f3597ba6f5942f931a054992b80e9ef47c2e7721" );
      ] );
  ]

let test_golden_k4 () =
  List.iter
    (fun (label, plan_of, digests) ->
      List.iter2
        (fun op (s_digest, r_digest) ->
          let plan = plan_of () in
          let drbg = Crypto.Drbg.create ~seed:"shard-golden" in
          let s_drbg = Crypto.Drbg.split drbg ~label:"sender" in
          let r_drbg = Crypto.Drbg.split drbg ~label:"receiver" in
          let o =
            Runner.run
              ~sender:(fun ep -> ignore (Shard.sender_op cfg plan ~drbg:s_drbg ep op))
              ~receiver:(fun ep -> ignore (Shard.receiver_op cfg plan ~drbg:r_drbg ep op))
          in
          let name side = Printf.sprintf "%s %s %s" label (Shard.op_name op) side in
          Alcotest.(check string) (name "sender") s_digest (view_digest o.Runner.sender_view);
          Alcotest.(check string) (name "receiver") r_digest
            (view_digest o.Runner.receiver_view))
        all_ops digests)
    golden_k4

(* Property: for random sets and bucket counts, the sharded
   intersection equals the plaintext oracle (hence also the monolithic
   protocol, which the psi suite pins to the oracle). *)
let value_gen =
  QCheck.Gen.(map (Printf.sprintf "v%d") (int_bound 60))

let sets_gen =
  QCheck.Gen.(
    triple (list_size (int_bound 25) value_gen) (list_size (int_bound 25) value_gen)
      (oneofl [ 1; 3; 4; 7; 16 ]))

let prop_sharded_intersection =
  QCheck.Test.make ~count:30 ~name:"sharded intersection = oracle"
    (QCheck.make ~print:(fun (s, r, k) ->
         Printf.sprintf "s=[%s] r=[%s] k=%d" (String.concat ";" s) (String.concat ";" r) k)
       sets_gen)
    (fun (s, r, k) ->
      let oracle =
        let sr = List.sort_uniq String.compare r in
        List.filter (fun x -> List.mem x sr) (List.sort_uniq String.compare s)
      in
      let rep =
        Shard.run cfg ~seed:"qc" (Shard.plan ~buckets:k ())
          (Shard.Intersect { s_values = s; r_values = r })
      in
      rep.Shard.result = Shard.Values oracle)

let prop_sharded_join_size =
  QCheck.Test.make ~count:15 ~name:"sharded equijoin size = oracle"
    (QCheck.make ~print:(fun (s, r, k) ->
         Printf.sprintf "s=[%s] r=[%s] k=%d" (String.concat ";" s) (String.concat ";" r) k)
       sets_gen)
    (fun (s, r, k) ->
      let oracle =
        List.fold_left
          (fun n v -> n + List.length (List.filter (String.equal v) s))
          0 r
      in
      let rep =
        Shard.run cfg ~seed:"qc-js" (Shard.plan ~buckets:k ())
          (Shard.Equijoin_size { s_values = s; r_values = r })
      in
      rep.Shard.result = Shard.Size oracle)

(* ------------------------------------------------------------------ *)
(* Spilled inputs                                                      *)
(* ------------------------------------------------------------------ *)

let test_spill_then_stream () =
  let dir = fresh_dir () in
  let plan = Shard.plan ~state_dir:dir ~buckets:6 () in
  let ns = Shard.spill_values cfg plan `Sender (List.to_seq s_values) in
  let nr = Shard.spill_values cfg plan `Receiver (List.to_seq r_values) in
  Alcotest.(check int) "sender spill count" (List.length s_values) ns;
  Alcotest.(check int) "receiver spill count" (List.length r_values) nr;
  (* Empty op-side lists: the driver streams the spilled buckets. *)
  let rep =
    Shard.run cfg ~seed:"spill" plan (Shard.Intersect { s_values = []; r_values = [] })
  in
  Alcotest.(check result_t) "result from spill"
    (Shard.Values [ "banana"; "cherry"; "fig" ])
    rep.Shard.result;
  (* And a run with explicit lists over the same plan re-spills them as
     its own copy. *)
  let rep2 = Shard.run cfg ~seed:"spill" plan (Shard.Intersect { s_values; r_values }) in
  Alcotest.(check result_t) "result re-spilled" rep.Shard.result rep2.Shard.result

let test_spill_records () =
  let dir = fresh_dir () in
  let plan = Shard.plan ~state_dir:dir ~buckets:3 () in
  let n = Shard.spill_records cfg plan `Sender (List.to_seq s_records) in
  Alcotest.(check int) "records spilled" (List.length s_records) n;
  let rep =
    Shard.run cfg ~seed:"spill-rec" plan (Shard.Equijoin { s_records = []; r_values }) in
  match rep.Shard.result with
  | Shard.Matches ms ->
      Alcotest.(check (list string)) "matched values" [ "banana"; "cherry"; "fig" ]
        (List.map fst ms);
      List.iter
        (fun (v, rows) ->
          Alcotest.(check (list string)) ("rows of " ^ v) [ "row:" ^ v ] rows)
        ms
  | _ -> Alcotest.fail "expected Matches"

(* ------------------------------------------------------------------ *)
(* Damaged on-disk state                                               *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let flip_byte data pos mask =
  String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c) data

let damage_s = List.init 20 (fun i -> Printf.sprintf "v%02d" i)
let damage_r = List.init 20 (fun i -> Printf.sprintf "v%02d" (i + 10))
let from_spill = Shard.Intersect { s_values = []; r_values = [] }

let spill_pair () =
  let dir = fresh_dir () in
  let plan = Shard.plan ~state_dir:dir ~buckets:2 () in
  ignore (Shard.spill_values cfg plan `Sender (List.to_seq damage_s));
  ignore (Shard.spill_values cfg plan `Receiver (List.to_seq damage_r));
  (dir, plan)

let expect_damaged what plan =
  match Shard.run cfg ~seed:"damaged" plan from_spill with
  | exception Wire.Record_log.Damaged _ -> ()
  | rep ->
      Alcotest.failf "%s: the run returned %a with no error" what result_pp rep.Shard.result

(* A committed spill whose bucket was flipped, cut by one entry, or
   rewritten clean with one entry fewer must fail typed rather than run
   on a partial set. *)
let test_damaged_spill_fails () =
  let dir, plan = spill_pair () in
  let intact = Shard.run cfg ~seed:"damaged" plan from_spill in
  Alcotest.(check int) "intact spill" 10
    (match intact.Shard.result with Shard.Values vs -> List.length vs | _ -> -1);
  let s_b0 = Filename.concat dir "op0-sender.b0.spill" in
  let data = read_file s_b0 in
  write_file s_b0 (flip_byte data (String.length data - 1) 0x01);
  expect_damaged "flipped last byte" plan;
  let dir, plan = spill_pair () in
  let r_b1 = Filename.concat dir "op0-receiver.b1.spill" in
  let in_b1 v = Shard.bucket_of cfg ~buckets:2 v = 1 in
  let last = List.hd (List.rev (List.filter in_b1 damage_r)) in
  let data = read_file r_b1 in
  write_file r_b1 (String.sub data 0 (String.length data - 1 - String.length last));
  expect_damaged "last entry cut off" plan;
  let dir, plan = spill_pair () in
  let r_b1 = Filename.concat dir "op0-receiver.b1.spill" in
  let w = Wire.Buf.writer () in
  List.iter
    (fun v -> if in_b1 v && v <> last then Wire.Buf.write_bytes w v)
    damage_r;
  Wire.Record_log.write ~kind:"spill" r_b1 (Seq.return (Wire.Buf.contents w));
  expect_damaged "clean log, one entry short of the meta" plan;
  (* The meta is damage too, in its frame or in its header: neither may
     pass for "no committed spill" and run on the empty set. *)
  let dir, plan = spill_pair () in
  let s_meta = Filename.concat dir "op0-sender.spillmeta" in
  let data = read_file s_meta in
  write_file s_meta (flip_byte data (String.length data - 1) 0x01);
  expect_damaged "flipped last byte of the meta" plan;
  let dir, plan = spill_pair () in
  let r_meta = Filename.concat dir "op0-receiver.spillmeta" in
  write_file r_meta (flip_byte (read_file r_meta) 0 0x01);
  expect_damaged "flipped first byte of the meta header" plan

(* The frame fuzzer's seed: one single-byte flip or one truncation of a
   file written by each of the four kinds of on-disk state never yields
   a wrong answer — the element cache serves a miss or the original,
   a snapshot loads as None or the original, a spill read fails typed
   or returns the original buckets, and minidb replays a prefix of the
   committed mutations (or, with its header hit, refuses the file). *)
type damage = Flip of int * int | Cut of int

(* Applies [d] to the file at [path]; returns the offset of the flipped
   byte or the length cut to. *)
let damage_file path d =
  let data = read_file path in
  let n = String.length data in
  match d with
  | Flip (seed, mask) ->
      write_file path (flip_byte data (seed mod n) mask);
      seed mod n
  | Cut seed ->
      write_file path (String.sub data 0 (seed mod n));
      seed mod n

let damaged_ecache d =
  let dir = fresh_dir () in
  let value x = "value-of:" ^ x in
  let c = Cache.Ecache.open_ ~dir () in
  List.iter (fun x -> Cache.Ecache.put c ~ns:"enc" ~key_fp:"fp" x (value x)) damage_s;
  Cache.Ecache.close c;
  ignore (damage_file (Filename.concat dir "ecache.psi") d);
  let c = Cache.Ecache.open_ ~dir () in
  let ok =
    List.for_all
      (fun x ->
        match Cache.Ecache.find c ~ns:"enc" ~key_fp:"fp" x with
        | None -> true
        | Some v -> String.equal v (value x))
      damage_s
  in
  Cache.Ecache.close c;
  ok

let damaged_snapshot d =
  let snap =
    {
      Wire.Snapshot.run_id = 3;
      entries =
        [
          {
            Wire.Snapshot.op = "intersect";
            key_fp = "fp";
            s_elements = damage_s;
            r_elements = damage_r;
          };
        ];
    }
  in
  let path = Filename.concat (fresh_dir ()) "snap" in
  Wire.Snapshot.save ~path snap;
  ignore (damage_file path d);
  match Wire.Snapshot.load ~path with None -> true | Some s -> s = snap

let damaged_spill ~which d =
  let dir, plan = spill_pair () in
  let spills =
    List.filter
      (fun f -> Filename.check_suffix f ".spill" || Filename.check_suffix f ".spillmeta")
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  ignore (damage_file (Filename.concat dir (List.nth spills (which mod List.length spills))) d);
  match Shard.run cfg ~seed:"damaged" plan from_spill with
  | exception Wire.Record_log.Damaged _ -> true
  | rep -> rep.Shard.result = Shard.Values (List.filter (fun v -> List.mem v damage_r) damage_s)

let damaged_minidb d =
  let module S = Minidb.Storage in
  let path = Filename.concat (fresh_dir ()) "db" in
  let schema = Minidb.Schema.make [ Minidb.Schema.col "v" Minidb.Value.TText ] in
  let rows = List.map (fun v -> [| Minidb.Value.Text v |]) damage_s in
  let db = S.open_db path in
  S.create_table db "t" schema;
  List.iter (fun r -> S.insert db "t" [ r ]) rows;
  S.close db;
  let pos = damage_file path d in
  (* Only damage inside the header refuses the file; anything after it
     must replay the valid prefix. *)
  let header_hit = pos < String.length (Wire.Record_log.header "minidb") in
  match S.open_db path with
  | exception Invalid_argument _ -> header_hit
  | db ->
      let replayed =
        match S.tables db with
        | [] -> true
        | [ "t" ] ->
            let got = Minidb.Table.rows (S.table db "t") in
            got = List.filteri (fun i _ -> i < List.length got) rows
        | _ -> false
      in
      S.close db;
      (not header_hit) && replayed

let prop_damaged_state =
  QCheck.Test.make ~count:200 ~name:"record log: a flipped or cut file never yields a wrong answer"
    QCheck.(
      make
        ~print:(fun (k, w, d) ->
          Printf.sprintf "kind %d, file %d, %s" k w
            (match d with
            | Flip (p, m) -> Printf.sprintf "flip %d by %d" p m
            | Cut p -> Printf.sprintf "cut at %d" p))
        Gen.(
          (* file index: up to the six files of a two-bucket spill pair *)
          triple (int_bound 3) (int_bound 5)
            (oneof
               [
                 map2 (fun p m -> Flip (p, m)) (int_bound 1_000_000) (int_range 1 255);
                 map (fun p -> Cut p) (int_bound 1_000_000);
               ])))
    (fun (k, which, d) ->
      match k with
      | 0 -> damaged_ecache d
      | 1 -> damaged_snapshot d
      | 2 -> damaged_spill ~which d
      | _ -> damaged_minidb d)

(* An empty list stands only for a spill committed by spill_values /
   spill_records — never for the previous run's inputs. *)
let test_empty_input_is_empty () =
  let s_values = [ "a"; "b"; "c" ] in
  let values = function
    | [ Session.Values vs ] -> vs
    | _ -> Alcotest.fail "expected one Values result"
  in
  let dir = fresh_dir () in
  let incremental r_values =
    (Session.run_incremental cfg ~seed:"stale" ~cache_dir:dir
       ~shard:(Shard.plan ~buckets:4 ())
       [ Session.Intersect { s_values; r_values } ]
       ())
      .Session.report
      .Session.results
    |> values
  in
  Alcotest.(check (list string)) "incremental R=[b;c]" [ "b"; "c" ] (incremental [ "b"; "c" ]);
  Alcotest.(check (list string)) "incremental R=[]" [] (incremental []);
  let shard = Shard.plan ~state_dir:(fresh_dir ()) ~buckets:4 () in
  let run r_values =
    (Session.run cfg ~seed:"stale" ~shard [ Session.Intersect { s_values; r_values } ] ())
      .Session.results
    |> values
  in
  Alcotest.(check (list string)) "spilled R=[a]" [ "a" ] (run [ "a" ]);
  Alcotest.(check (list string)) "spilled R=[]" [] (run [])

(* ------------------------------------------------------------------ *)
(* Incremental sessions over shards                                    *)
(* ------------------------------------------------------------------ *)

let test_incremental_sharded_warm () =
  let dir = fresh_dir () in
  let shard = Shard.plan ~buckets:4 () in
  let run () =
    Session.run_incremental cfg ~seed:"inc-shard" ~cache_dir:dir ~shard all_ops ()
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check (list result_t)) "warm = cold" cold.Session.report.Session.results
    warm.Session.report.Session.results;
  Alcotest.(check bool) "first run cold" true cold.Session.incremental.Session.cold;
  Alcotest.(check bool) "second run warm" false warm.Session.incremental.Session.cold;
  Alcotest.(check int) "no new elements" 0 warm.Session.incremental.Session.added;
  (* O(|Δ|): the warm run answers its encryptions from the cache. *)
  Alcotest.(check bool)
    (Printf.sprintf "warm hits (%d) cover most crypto" warm.Session.incremental.Session.hits)
    true
    (warm.Session.incremental.Session.hits > 0
    && warm.Session.incremental.Session.misses = 0)

(* ------------------------------------------------------------------ *)
(* Kill mid-bucket, resume from per-bucket checkpoints                 *)
(* ------------------------------------------------------------------ *)

let resilience =
  { Session.max_attempts = 60; backoff_s = 0.; max_backoff_s = 0.; recv_timeout_s = Some 5. }

let faulty_connect plan_of ~attempt =
  let a, b = Transport.Memory.pair () in
  let (fa, fb), _stats = Fault.wrap_pair (plan_of attempt) (a, b) in
  (Channel.of_transport fa, Channel.of_transport fb)

let test_killed_mid_bucket_resumes () =
  let dir = fresh_dir () in
  let shard = Shard.plan ~state_dir:dir ~buckets:8 () in
  let plain = Session.run cfg ~seed:"shard-kill" [ List.hd all_ops ] () in
  let resumes = Obs.Metrics.counter "shard.resumes" in
  let buckets_run = Obs.Metrics.counter "shard.buckets_run" in
  let before_resumes = Obs.Metrics.counter_value resumes in
  let before_buckets = Obs.Metrics.counter_value buckets_run in
  (* Cut the connection a few frames further along on each attempt, so
     the run dies mid-op several times before completing. (Telemetry on:
     the per-bucket skip assertions read the shard counters.) *)
  let r =
    Obs.Runtime.with_enabled @@ fun () ->
    Session.run_resilient ~resilience cfg ~seed:"shard-kill" ~shard
      ~connect:
        (faulty_connect (fun attempt ->
             Fault.plan ~cut_after:(4 + (3 * attempt)) ~seed:"kill-mid-bucket" ()))
      [ List.hd all_ops ]
  in
  Alcotest.(check (list result_t)) "results" plain.Session.results
    r.Session.report.Session.results;
  Alcotest.(check bool) "reconnected at least once" true (r.Session.attempts >= 2);
  Alcotest.(check bool) "resumed from per-bucket checkpoints" true
    (Obs.Metrics.counter_value resumes > before_resumes);
  (* Per-bucket granularity: resuming attempts skip completed buckets,
     so strictly fewer buckets execute than attempts * k. *)
  let ran = Obs.Metrics.counter_value buckets_run - before_buckets in
  Alcotest.(check bool)
    (Printf.sprintf "skipped completed buckets (%d ran over %d attempts)" ran
       r.Session.attempts)
    true
    (ran < 8 * r.Session.attempts)

(* Without a state_dir the resilient run keeps its per-bucket
   checkpoints in memory across attempts, so it too resumes past
   bucket 0 instead of replaying the op. *)
let test_killed_in_memory_resumes () =
  let shard = Shard.plan ~buckets:4 () in
  let plain = Session.run cfg ~seed:"shard-kill-mem" [ List.hd all_ops ] () in
  let resumes = Obs.Metrics.counter "shard.resumes" in
  let before = Obs.Metrics.counter_value resumes in
  let r =
    Obs.Runtime.with_enabled @@ fun () ->
    Session.run_resilient ~resilience cfg ~seed:"shard-kill-mem" ~shard
      ~connect:
        (faulty_connect (fun attempt ->
             Fault.plan ~cut_after:(4 + (3 * attempt)) ~seed:"kill-in-memory" ()))
      [ List.hd all_ops ]
  in
  Alcotest.(check (list result_t)) "results" plain.Session.results
    r.Session.report.Session.results;
  Alcotest.(check bool) "reconnected at least once" true (r.Session.attempts >= 2);
  Alcotest.(check bool) "resumed past bucket 0" true
    (Obs.Metrics.counter_value resumes > before)

(* The resilient transcript: one three-field shard/resume frame per
   party per op on a fault-free run, and nothing else the monolithic
   session does not send. *)
let test_resilient_resume_frames () =
  let eps = ref [] in
  let connect ~attempt:_ =
    let s_ep, r_ep = Channel.create () in
    eps := [ ("sender", s_ep); ("receiver", r_ep) ];
    (s_ep, r_ep)
  in
  let r =
    Session.run_resilient ~resilience cfg ~seed:"resume-frames" ~connect all_ops
  in
  Alcotest.(check int) "one attempt" 1 r.Session.attempts;
  let plain = Session.run cfg ~seed:"resume-frames" all_ops () in
  Alcotest.(check (list result_t)) "results" plain.Session.results
    r.Session.report.Session.results;
  List.iter
    (fun (who, ep) ->
      let view = Channel.received ep in
      let resume = List.filter (fun m -> m.Message.tag = "shard/resume") view in
      Alcotest.(check int) (who ^ ": one resume frame per op") (List.length all_ops)
        (List.length resume);
      List.iter
        (fun m -> Alcotest.(check int) (who ^ ": three fields") 3 (Message.element_count m))
        resume;
      Alcotest.(check bool) (who ^ ": no session/resume") false
        (List.exists (fun m -> m.Message.tag = "session/resume") view))
    !eps

(* Checkpoints outlive the attempt: an op both parties finished before
   the cut is skipped on reconnect (its result restored), not re-run. *)
let test_finished_ops_skipped () =
  let ops = [ List.nth all_ops 0; List.nth all_ops 1 ] in
  let connect ~attempt =
    faulty_connect
      (fun _ -> Fault.plan ?cut_after:(if attempt = 1 then Some 5 else None) ~seed:"skip" ())
      ~attempt
  in
  let r = Session.run_resilient ~resilience cfg ~seed:"skip" ~connect ops in
  let plain = Session.run cfg ~seed:"skip" ops () in
  Alcotest.(check (list result_t)) "results" plain.Session.results
    r.Session.report.Session.results;
  Alcotest.(check int) "two attempts" 2 r.Session.attempts;
  let last = List.nth r.Session.receiver_views 1 in
  Alcotest.(check bool) "op 0 not re-run" false
    (List.exists (fun m -> String.starts_with ~prefix:"intersection/" m.Message.tag) last)

let test_killed_state_is_consumed () =
  (* After a completed run, no progress or result checkpoints remain:
     crash-recovery state must never act as a cross-run memo. *)
  let dir = fresh_dir () in
  let shard = Shard.plan ~state_dir:dir ~buckets:4 () in
  let _ = Session.run cfg ~seed:"consumed" ~shard [ List.hd all_ops ] () in
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".prog" || Filename.check_suffix f ".result")
  in
  Alcotest.(check (list string)) "no checkpoint leftovers" [] leftovers;
  (* Changing the peer's set between runs must change the result — the
     receiver may not replay a checkpointed bucket result. *)
  let r2 =
    Session.run cfg ~seed:"consumed" ~shard
      [ Session.Intersect { s_values = [ "banana" ]; r_values } ]
      ()
  in
  Alcotest.(check (list result_t)) "fresh result, not memo"
    [ Session.Values [ "banana" ] ]
    r2.Session.results

(* ------------------------------------------------------------------ *)
(* Leakage shape                                                       *)
(* ------------------------------------------------------------------ *)

(* What §5 + sharding permits the transcript to reveal: every message is
   either the handshake, one constant-shape resume frame per party, or
   a monolithic protocol message re-tagged into a bucket namespace
   [b<i>/...]. Beyond the monolithic shape, the only new information is
   the per-bucket element counts (bucket sizes) and the bucket count
   itself. *)
let test_leakage_shape () =
  let k = 4 in
  let op = Session.Intersect { s_values; r_values } in
  let mono = Session.run cfg ~seed:"leak" [ op ] () in
  ignore mono;
  let mono_view =
    Runner.run
      ~sender:(fun ep ->
        Psi.Handshake.respond cfg ep;
        Shard.sender_op cfg Shard.monolithic ~drbg:(Crypto.Drbg.create ~seed:"leak-mono-s") ep
          op)
      ~receiver:(fun ep ->
        Psi.Handshake.initiate cfg ep;
        Shard.receiver_op cfg Shard.monolithic ~drbg:(Crypto.Drbg.create ~seed:"leak-mono-r")
          ep op)
  in
  let mono_tags =
    List.map (fun m -> m.Message.tag) (mono_view.Runner.sender_view @ mono_view.Runner.receiver_view)
    |> List.filter (fun t -> t <> "handshake/config")
    |> List.sort_uniq String.compare
  in
  let plan = Shard.plan ~buckets:k () in
  let o =
    Runner.run
      ~sender:(fun ep ->
        Psi.Handshake.respond cfg ep;
        Shard.sender_op cfg plan ~drbg:(Crypto.Drbg.create ~seed:"leak-s") ep
          (Shard.Intersect { s_values; r_values }))
      ~receiver:(fun ep ->
        Psi.Handshake.initiate cfg ep;
        Shard.receiver_op cfg plan ~drbg:(Crypto.Drbg.create ~seed:"leak-r") ep
          (Shard.Intersect { s_values; r_values }))
  in
  let check_view who view =
    let resume = List.filter (fun m -> m.Message.tag = "shard/resume") view in
    (* Exactly one resume frame per party, of constant shape: three
       fields regardless of inputs or progress. *)
    Alcotest.(check int) (who ^ ": one resume frame") 1 (List.length resume);
    List.iter
      (fun m ->
        Alcotest.(check int) (who ^ ": resume frame shape") 3 (Message.element_count m))
      resume;
    List.iter
      (fun m ->
        let tag = m.Message.tag in
        if tag <> "handshake/config" && tag <> "shard/resume" then begin
          (* Every other message lives in a bucket namespace and, with
             the prefix stripped, is a monolithic protocol tag. *)
          match String.index_opt tag '/' with
          | None -> Alcotest.failf "%s: unscoped tag %s" who tag
          | Some i ->
              let prefix = String.sub tag 0 i in
              let rest = String.sub tag (i + 1) (String.length tag - i - 1) in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s is a bucket namespace" who prefix)
                true
                (String.length prefix >= 2
                && prefix.[0] = 'b'
                &&
                match int_of_string_opt (String.sub prefix 1 (String.length prefix - 1)) with
                | Some b -> b >= 0 && b < k
                | None -> false);
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s beyond monolithic shape" who rest)
                true
                (List.mem rest mono_tags)
        end)
      view
  in
  check_view "sender" o.Runner.sender_view;
  check_view "receiver" o.Runner.receiver_view;
  (* The per-bucket counts the receiver sees sum to what the monolithic
     transcript already revealed: |V_S|. The split itself (bucket
     sizes) is the documented §5 delta. *)
  let y_s_counts =
    List.filter_map
      (fun m ->
        if Filename.check_suffix m.Message.tag "intersection/Y_S" then
          Some (Message.element_count m)
        else None)
      o.Runner.receiver_view
  in
  Alcotest.(check int) "bucket sizes sum to |V_S|"
    (List.length (P.dedup s_values))
    (List.fold_left ( + ) 0 y_s_counts)

let () =
  QCheck_base_runner.set_seed 20260809;
  Alcotest.run "shard"
    [
      ( "bucket",
        [
          Alcotest.test_case "assignment stable and in range" `Quick test_bucket_of_stable;
          Alcotest.test_case "assignment covers buckets" `Quick test_bucket_of_covers;
        ] );
      ( "parity",
        [
          Alcotest.test_case "all four protocols, k in {1,4,16}" `Quick
            test_parity_all_protocols;
          Alcotest.test_case "with spill state_dir" `Quick test_parity_with_state_dir;
          Alcotest.test_case "shard report" `Quick test_shard_run_report;
          Alcotest.test_case "golden transcript digests, k=4" `Quick test_golden_k4;
          QCheck_alcotest.to_alcotest prop_sharded_intersection;
          QCheck_alcotest.to_alcotest prop_sharded_join_size;
        ] );
      ( "spill",
        [
          Alcotest.test_case "spill then stream" `Quick test_spill_then_stream;
          Alcotest.test_case "spill records" `Quick test_spill_records;
          Alcotest.test_case "empty input never reuses a run's spill" `Quick
            test_empty_input_is_empty;
          Alcotest.test_case "damaged spill fails typed" `Quick test_damaged_spill_fails;
          QCheck_alcotest.to_alcotest prop_damaged_state;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "sharded warm run" `Quick test_incremental_sharded_warm;
        ] );
      ( "resume",
        [
          Alcotest.test_case "killed mid-bucket resumes" `Quick
            test_killed_mid_bucket_resumes;
          Alcotest.test_case "killed in-memory run resumes" `Quick
            test_killed_in_memory_resumes;
          Alcotest.test_case "one resume frame per party per op" `Quick
            test_resilient_resume_frames;
          Alcotest.test_case "finished ops skipped on reconnect" `Quick
            test_finished_ops_skipped;
          Alcotest.test_case "checkpoints are consumed" `Quick test_killed_state_is_consumed;
        ] );
      ( "leakage",
        [ Alcotest.test_case "shape delta is bucket sizes only" `Quick test_leakage_shape ] );
    ]
