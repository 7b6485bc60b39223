(* Tests for the persistent encrypted-set cache (Psi.Ecache) and the
   run snapshots it pairs with: round-trip durability, LRU bounds, and
   — the load-bearing property — that a damaged file degrades to a
   miss/rebuild, never to serving a wrong value. *)

module Ecache = Cache.Ecache
module Snapshot = Wire.Snapshot

(* The cache file's record-log header; frames follow it. *)
let ecache_header = Wire.Record_log.header "ecache"

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psi-ecache-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let cache_file dir = Filename.concat dir "ecache.psi"
let value_of input = "value-of:" ^ input
let inputs n = List.init n (fun i -> Printf.sprintf "elt-%04d" i)

let fill dir ns xs =
  let c = Ecache.open_ ~dir () in
  List.iter (fun x -> Ecache.put c ~ns ~key_fp:"fp" x (value_of x)) xs;
  Ecache.close c;
  c

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Every lookup must be either the exact stored value or a miss. *)
let check_never_wrong ~msg dir ns xs =
  let c = Ecache.open_ ~dir () in
  let ok =
    List.for_all
      (fun x ->
        match Ecache.find c ~ns ~key_fp:"fp" x with
        | None -> true
        | Some v -> String.equal v (value_of x))
      xs
  in
  Ecache.close c;
  Alcotest.(check bool) msg true ok

(* ------------------------------------------------------------------ *)
(* Round trip and stats                                                *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let dir = fresh_dir () in
  let xs = inputs 20 in
  ignore (fill dir "enc" xs);
  let c = Ecache.open_ ~dir () in
  List.iter
    (fun x ->
      match Ecache.find c ~ns:"enc" ~key_fp:"fp" x with
      | Some v -> Alcotest.(check string) "reloaded value" (value_of x) v
      | None -> Alcotest.fail ("missing after reload: " ^ x))
    xs;
  let s = Ecache.stats c in
  Alcotest.(check int) "loaded" 20 s.Ecache.loaded;
  Alcotest.(check int) "hits" 20 s.Ecache.hits;
  Alcotest.(check int) "misses" 0 s.Ecache.misses;
  Alcotest.(check int) "entries" 20 s.Ecache.entries;
  (* Distinct coordinates never alias. *)
  Alcotest.(check bool) "other ns misses" true
    (Option.is_none (Ecache.find c ~ns:"dec" ~key_fp:"fp" "elt-0000"));
  Alcotest.(check bool) "other key misses" true
    (Option.is_none (Ecache.find c ~ns:"enc" ~key_fp:"fp2" "elt-0000"));
  Ecache.close c

let test_missing_file_is_empty () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~dir () in
  Alcotest.(check int) "empty" 0 (Ecache.entries c);
  Alcotest.(check bool) "miss" true
    (Option.is_none (Ecache.find c ~ns:"enc" ~key_fp:"fp" "x"));
  Ecache.close c

let test_closed_cache_raises () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~dir () in
  Ecache.close c;
  Ecache.close c;
  Alcotest.check_raises "find after close"
    (Invalid_argument "Ecache: cache is closed") (fun () ->
      ignore (Ecache.find c ~ns:"enc" ~key_fp:"fp" "x"))

(* ------------------------------------------------------------------ *)
(* Corruption: miss/rebuild, never a wrong value                       *)
(* ------------------------------------------------------------------ *)

let test_truncated_file () =
  let dir = fresh_dir () in
  let xs = inputs 10 in
  ignore (fill dir "enc" xs);
  let data = read_file (cache_file dir) in
  (* Cut at several depths, including mid-header and mid-entry. *)
  List.iter
    (fun keep ->
      let keep = min keep (String.length data) in
      write_file (cache_file dir) (String.sub data 0 keep);
      check_never_wrong ~msg:(Printf.sprintf "truncated at %d" keep) dir "enc" xs)
    [ 0; 4; 9; 15; String.length data / 2; String.length data - 3 ]

let test_flipped_checksum_byte () =
  let dir = fresh_dir () in
  let xs = inputs 5 in
  ignore (fill dir "enc" xs);
  let data = read_file (cache_file dir) in
  (* The file ends with the newest entry's 8-byte checksum: flipping
     its last byte must invalidate exactly that entry. *)
  let b = Bytes.of_string data in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  write_file (cache_file dir) (Bytes.to_string b);
  let c = Ecache.open_ ~dir () in
  let s = Ecache.stats c in
  Alcotest.(check int) "one entry rejected" 4 s.Ecache.loaded;
  Alcotest.(check int) "counted corrupt" 1 s.Ecache.corrupt;
  Ecache.close c;
  check_never_wrong ~msg:"flipped checksum byte" dir "enc" xs

let test_corrupt_entry_skipped () =
  let dir = fresh_dir () in
  let xs = inputs 6 in
  ignore (fill dir "enc" xs);
  let data = read_file (cache_file dir) in
  (* The first frame's one-byte length follows the header; the byte
     after it opens the first entry's body. The frame stays intact, so
     later entries load. *)
  let b = Bytes.of_string data in
  let pos = String.length ecache_header + 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  write_file (cache_file dir) (Bytes.to_string b);
  let c = Ecache.open_ ~dir () in
  let s = Ecache.stats c in
  Alcotest.(check int) "later entries survive" 5 s.Ecache.loaded;
  Alcotest.(check int) "counted corrupt" 1 s.Ecache.corrupt;
  Ecache.close c;
  check_never_wrong ~msg:"corrupt entry body" dir "enc" xs

let test_stale_version_header () =
  let dir = fresh_dir () in
  let xs = inputs 8 in
  ignore (fill dir "enc" xs);
  let data = read_file (cache_file dir) in
  (* The format version is the header's last byte. *)
  let b = Bytes.of_string data in
  Bytes.set b (String.length ecache_header - 1) (Char.chr 99);
  write_file (cache_file dir) (Bytes.to_string b);
  let c = Ecache.open_ ~dir () in
  Alcotest.(check int) "stale version loads nothing" 0 (Ecache.entries c);
  Ecache.close c;
  check_never_wrong ~msg:"stale version" dir "enc" xs

(* Loading and flushing the cache are attributed: each opens a span
   naming the file kind and the bytes moved. *)
let test_store_spans () =
  let dir = fresh_dir () in
  ignore (fill dir "enc" (inputs 4));
  let size = (Unix.stat (cache_file dir)).Unix.st_size in
  let (), roots, _ =
    Obs.trace (fun () ->
        let c = Ecache.open_ ~dir () in
        Ecache.put c ~ns:"enc" ~key_fp:"fp" "new" (value_of "new");
        Ecache.flush c)
  in
  let store =
    List.filter_map
      (fun s ->
        if String.starts_with ~prefix:"store/" (Obs.Span.name s) then
          let attr k = List.assoc_opt k (Obs.Span.attrs s) in
          Some (Obs.Span.name s, attr "kind", attr "bytes")
        else None)
      roots
  in
  let size' = (Unix.stat (cache_file dir)).Unix.st_size in
  Alcotest.(check (list (triple string (option string) (option string))))
    "one read, one write"
    [
      ("store/read", Some "ecache", Some (string_of_int size));
      ("store/write", Some "ecache", Some (string_of_int size'));
    ]
    store

let qcheck_case ?(count = 60) ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* store → corrupt one byte anywhere → load ≡ miss (or the untouched
   original); any single-byte flip must never surface a wrong value. *)
let corrupt_one_byte_prop =
  qcheck_case ~name:"single byte flip never serves a wrong value"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos_seed, flip) ->
      let dir = fresh_dir () in
      let xs = inputs 7 in
      ignore (fill dir "enc" xs);
      let data = read_file (cache_file dir) in
      let b = Bytes.of_string data in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      write_file (cache_file dir) (Bytes.to_string b);
      let c = Ecache.open_ ~dir () in
      let ok =
        List.for_all
          (fun x ->
            match Ecache.find c ~ns:"enc" ~key_fp:"fp" x with
            | None -> true
            | Some v -> String.equal v (value_of x))
          xs
      in
      Ecache.close c;
      ok)

(* ------------------------------------------------------------------ *)
(* LRU bound and eviction order                                        *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_order () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~max_entries:4 ~dir () in
  let put x = Ecache.put c ~ns:"enc" ~key_fp:"fp" x (value_of x) in
  let present x = Option.is_some (Ecache.find c ~ns:"enc" ~key_fp:"fp" x) in
  List.iter put [ "a"; "b"; "c"; "d" ];
  (* Touch "a": "b" becomes the least recently used. *)
  Alcotest.(check bool) "a cached" true (present "a");
  put "e";
  Alcotest.(check bool) "b evicted first" false (present "b");
  Alcotest.(check bool) "a survives (recently used)" true (present "a");
  Alcotest.(check bool) "c survives" true (present "c");
  Alcotest.(check bool) "e cached" true (present "e");
  put "f";
  (* "c" is now oldest: a,c,e touched above... order after touches:
     d < a < c < e (d untouched since insert). *)
  Alcotest.(check bool) "d evicted next" false (present "d");
  let s = Ecache.stats c in
  Alcotest.(check int) "evictions counted" 2 s.Ecache.evictions;
  Alcotest.(check int) "bounded" 4 s.Ecache.entries;
  Ecache.close c

let test_lru_survives_reload () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~max_entries:8 ~dir () in
  let put x = Ecache.put c ~ns:"enc" ~key_fp:"fp" x (value_of x) in
  List.iter put [ "a"; "b"; "c" ];
  ignore (Ecache.find c ~ns:"enc" ~key_fp:"fp" "a");
  Ecache.close c;
  (* Reload with a tight bound: recency order persisted, so "b" (the
     least recently used) is the one evicted. *)
  let c = Ecache.open_ ~max_entries:2 ~dir () in
  Alcotest.(check bool) "b evicted on reload" true
    (Option.is_none (Ecache.find c ~ns:"enc" ~key_fp:"fp" "b"));
  Alcotest.(check bool) "a kept on reload" true
    (Option.is_some (Ecache.find c ~ns:"enc" ~key_fp:"fp" "a"));
  Ecache.close c

(* ------------------------------------------------------------------ *)
(* Warm-up                                                             *)
(* ------------------------------------------------------------------ *)

let test_warm_computes_misses_only () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~dir () in
  Ecache.put c ~ns:"enc" ~key_fp:"fp" "a" (value_of "a");
  let computed = ref [] in
  let f x =
    computed := x :: !computed;
    value_of x
  in
  Ecache.warm c ~ns:"enc" ~key_fp:"fp" ~f [ "a"; "b"; "c"; "b" ];
  Alcotest.(check (list string)) "computes each miss once" [ "b"; "c" ]
    (List.sort String.compare !computed);
  let s = Ecache.stats c in
  Alcotest.(check int) "warm peeks don't count" 0 (s.Ecache.hits + s.Ecache.misses);
  Alcotest.(check int) "entries" 3 s.Ecache.entries;
  Ecache.close c

let test_concurrent_warm_two_pools () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~dir () in
  let xs = inputs 200 in
  (* Two parties warm overlapping ranges concurrently, each through its
     own forced pool (exercises the worker path even on 1-core hosts). *)
  let warm_with lo hi =
    let pool = Parallel.Pool.create ~force:true 2 in
    let slice = List.filteri (fun i _ -> i >= lo && i < hi) xs in
    Ecache.warm c ~pool ~ns:"h2g:test" ~key_fp:"" ~f:value_of slice;
    Parallel.Pool.shutdown pool
  in
  let t1 = Thread.create (fun () -> warm_with 0 150) () in
  let t2 = Thread.create (fun () -> warm_with 50 200) () in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check int) "all entries present" 200 (Ecache.entries c);
  List.iter
    (fun x ->
      match Ecache.find c ~ns:"h2g:test" ~key_fp:"" x with
      | Some v -> Alcotest.(check string) "warmed value" (value_of x) v
      | None -> Alcotest.fail ("missing after concurrent warm: " ^ x))
    xs;
  Ecache.close c

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snap =
  {
    Snapshot.run_id = 7;
    entries =
      [
        {
          Snapshot.op = "intersect";
          key_fp = "abcd";
          s_elements = [ "a"; "b" ];
          r_elements = [ "b"; "c"; "d" ];
        };
        { Snapshot.op = "equijoin"; key_fp = "abcd"; s_elements = []; r_elements = [ "x" ] };
      ];
  }

let test_snapshot_round_trip () =
  match Snapshot.decode (Snapshot.encode snap) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check int) "run_id" 7 s.Snapshot.run_id;
      Alcotest.(check int) "entries" 2 (List.length s.Snapshot.entries);
      let e0 = List.hd s.Snapshot.entries in
      Alcotest.(check (list string)) "r_elements" [ "b"; "c"; "d" ] e0.Snapshot.r_elements

let snapshot_corruption_prop =
  qcheck_case ~name:"snapshot: any single byte flip is rejected"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos_seed, flip) ->
      let path = Filename.concat (fresh_dir ()) "snap" in
      Snapshot.save ~path snap;
      let data = Bytes.of_string (read_file path) in
      let pos = pos_seed mod Bytes.length data in
      Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor flip));
      write_file path (Bytes.to_string data);
      Option.is_none (Snapshot.load ~path))

let test_snapshot_save_load () =
  let path = Filename.concat (fresh_dir ()) "snap" in
  Snapshot.save ~path snap;
  Alcotest.(check bool) "reloaded" true (Snapshot.load ~path = Some snap)

let test_snapshot_load_missing () =
  Alcotest.(check bool) "missing file" true
    (Option.is_none (Snapshot.load ~path:"/nonexistent/psi-snap-test"))

let () =
  Alcotest.run "cache"
    [
      ( "durability",
        [
          Alcotest.test_case "round trip through disk" `Quick test_round_trip;
          Alcotest.test_case "missing file is empty" `Quick test_missing_file_is_empty;
          Alcotest.test_case "closed cache raises" `Quick test_closed_cache_raises;
          Alcotest.test_case "load and flush open store spans" `Quick test_store_spans;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated file" `Quick test_truncated_file;
          Alcotest.test_case "flipped checksum byte" `Quick test_flipped_checksum_byte;
          Alcotest.test_case "corrupt entry is skipped" `Quick test_corrupt_entry_skipped;
          Alcotest.test_case "stale version header" `Quick test_stale_version_header;
          corrupt_one_byte_prop;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "recency survives reload" `Quick test_lru_survives_reload;
        ] );
      ( "warm",
        [
          Alcotest.test_case "computes misses only" `Quick test_warm_computes_misses_only;
          Alcotest.test_case "concurrent warm from two pools" `Quick
            test_concurrent_warm_two_pools;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "save then load" `Quick test_snapshot_save_load;
          snapshot_corruption_prop;
          Alcotest.test_case "load missing" `Quick test_snapshot_load_missing;
        ] );
    ]
