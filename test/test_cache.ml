(* Tests for the persistent encrypted-set cache (Psi.Ecache) and the
   run snapshots it pairs with: round-trip durability, eviction at
   flush, append-only flushes, and — the load-bearing property — that a
   damaged file degrades to a miss/rebuild, never to serving a wrong
   value. *)

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

(* A frame body: ns, key_fp and the writing generation, then
   (input, value) pairs. *)
let decode_frame body =
  let r = Wire.Buf.reader body in
  let ns = Wire.Buf.read_bytes r in
  let key_fp = Wire.Buf.read_bytes r in
  let gen = Wire.Buf.read_varint r in
  let rec entries acc =
    if Wire.Buf.at_end r then List.rev acc
    else
      let input = Wire.Buf.read_bytes r in
      let value = Wire.Buf.read_bytes r in
      entries ((input, value) :: acc)
  in
  (ns, key_fp, gen, entries [])

(* Every entry record in a cache log, in file order. *)
let file_entries path =
  match
    Wire.Record_log.fold ~kind:"ecache" path ~init:[] (fun acc -> function
      | Wire.Record_log.Body b ->
          let _, _, _, es = decode_frame b in
          List.rev_append es acc
      | Wire.Record_log.Corrupt -> Alcotest.fail "unexpected corrupt frame")
  with
  | Wire.Record_log.Read { acc; clean = true; _ } -> List.rev acc
  | _ -> Alcotest.fail "expected a clean cache log"
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

(* Two flushes, two frames: [xs] in the first, [ys] appended. *)
let fill_two_frames dir xs ys =
  ignore (fill dir "enc" xs);
  ignore (fill dir "enc" ys)

let test_flipped_checksum_byte () =
  let dir = fresh_dir () in
  let xs = inputs 5 and ys = [ "late-1"; "late-2"; "late-3" ] in
  fill_two_frames dir xs ys;
  let data = read_file (cache_file dir) in
  (* The file ends with the appended frame's 8-byte checksum: flipping
     its last byte must invalidate exactly that frame's entries. *)
  let b = Bytes.of_string data in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  write_file (cache_file dir) (Bytes.to_string b);
  let c = Ecache.open_ ~dir () in
  let s = Ecache.stats c in
  Alcotest.(check int) "only the last frame rejected" 5 s.Ecache.loaded;
  Alcotest.(check int) "counted corrupt" 1 s.Ecache.corrupt;
  Ecache.close c;
  check_never_wrong ~msg:"flipped checksum byte" dir "enc" (xs @ ys)

let test_corrupt_entry_skipped () =
  let dir = fresh_dir () in
  let xs = inputs 6 and ys = [ "late-1"; "late-2"; "late-3" ] in
  fill_two_frames dir xs ys;
  let data = read_file (cache_file dir) in
  (* The first frame's length (at most two bytes here) follows the
     header; a byte a little past it lies in the first frame's body.
     The frame stays framed, so the later frame loads. *)
  let b = Bytes.of_string data in
  let pos = String.length ecache_header + 4 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  write_file (cache_file dir) (Bytes.to_string b);
  let c = Ecache.open_ ~dir () in
  let s = Ecache.stats c in
  Alcotest.(check int) "later frame survives" 3 s.Ecache.loaded;
  Alcotest.(check int) "counted corrupt" 1 s.Ecache.corrupt;
  Ecache.close c;
  check_never_wrong ~msg:"corrupt frame body" dir "enc" (xs @ ys)

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
  (* The flush appends one frame: the write span counts its bytes. *)
  let size' = (Unix.stat (cache_file dir)).Unix.st_size in
  Alcotest.(check (list (triple string (option string) (option string))))
    "one read, one write"
    [
      ("store/read", Some "ecache", Some (string_of_int size));
      ("store/write", Some "ecache", Some (string_of_int (size' - size)));
    ]
    store

(* Loading is not storing: [ecache.puts] counts only entries that [put]
   stores, [ecache.loaded_entries] the ones [open_] restores. *)
let test_load_counts_no_puts () =
  let dir = fresh_dir () in
  ignore (fill dir "enc" (inputs 12));
  let count name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Obs.Runtime.with_enabled (fun () ->
      let puts = count "ecache.puts" and loaded = count "ecache.loaded_entries" in
      let c = Ecache.open_ ~dir () in
      Alcotest.(check int) "no puts" 0 (count "ecache.puts" - puts);
      Alcotest.(check int) "loaded" 12 (count "ecache.loaded_entries" - loaded);
      Alcotest.(check int) "stats.puts" 0 (Ecache.stats c).Ecache.puts;
      Ecache.close c)

(* The loaded store is the file's frame bodies plus a flat index:
   loading promotes the bodies' bytes and less than a word per entry
   besides, where a table of boxed entries promotes ~20 words per
   entry. Inputs and values are 32 bytes, the size of a 256-bit group
   element's encoding. *)
let test_load_promotes_no_block_per_entry () =
  let dir = fresh_dir () in
  let n = 20_000 in
  let elt i = Printf.sprintf "%032d" i in
  let c = Ecache.open_ ~dir () in
  ignore
    (Ecache.batch c ~ns:"enc" ~key_fp:"fp"
       ~compute:(List.map (fun x -> String.map (fun ch -> Char.chr (Char.code ch + 1)) x))
       (List.init n elt));
  Ecache.close c;
  let bytes = (Unix.stat (cache_file dir)).Unix.st_size in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let c = Ecache.open_ ~dir () in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  Alcotest.(check int) "loaded" n (Ecache.stats c).Ecache.loaded;
  let per_entry = promoted /. float_of_int n
  and body_words = float_of_int bytes /. 8. /. float_of_int n in
  if per_entry > body_words +. 1. then
    Alcotest.failf "loading promoted %.1f words per entry, bodies are %.1f" per_entry body_words;
  Ecache.close c

let qcheck_case ?(count = 60) ~name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* FNV-1a-64, the record log's frame checksum. *)
let fnv64 s off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

(* The offset and length of each frame body in a cache file. *)
let frame_bodies data =
  let rec varint p shift acc =
    let b = Char.code data.[p] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, p + 1) else varint (p + 1) (shift + 7) acc
  in
  let rec go p acc =
    if p >= String.length data then List.rev acc
    else
      let len, body = varint p 0 0 in
      go (body + len + 8) ((body, len) :: acc)
  in
  go (String.length ecache_header) []

(* Every [(ns, key_fp, input, value)] a cache file's frames hold, read
   by the reference decoder: a frame whose checksum fails or whose body
   does not decode holds none. *)
let decodable_pairs path =
  match
    Wire.Record_log.fold ~kind:"ecache" path ~init:[] (fun acc -> function
      | Wire.Record_log.Body b -> (
          match decode_frame b with
          | ns, key_fp, _, es ->
              List.fold_left (fun acc (x, v) -> (ns, key_fp, x, v) :: acc) acc es
          | exception Wire.Buf.Parse_error _ -> acc)
      | Wire.Record_log.Corrupt -> acc)
  with
  | Wire.Record_log.Read { acc; _ } -> acc
  | Wire.Record_log.Missing | Wire.Record_log.Foreign -> []

(* A record log of [bodies] laid out byte by byte, each checksum
   computed by the reference [fnv64] above rather than by the writer
   under test, and the offset just past each frame. *)
let reference_log bodies =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Wire.Record_log.header "test");
  let rec varint n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      varint (n lsr 7)
    end
  in
  let ends =
    List.map
      (fun body ->
        varint (String.length body);
        Buffer.add_string b body;
        let sum = Bytes.create 8 in
        Bytes.set_int64_be sum 0 (fnv64 body 0 (String.length body));
        Buffer.add_bytes b sum;
        Buffer.length b)
      bodies
  in
  (Buffer.contents b, ends)

let log_frames path =
  match
    Wire.Record_log.fold ~kind:"test" path ~init:[] (fun acc frame -> frame :: acc)
  with
  | Wire.Record_log.Read { acc; valid; clean } -> (List.rev acc, valid, clean)
  | Wire.Record_log.Missing | Wire.Record_log.Foreign -> Alcotest.fail "expected a read"

(* Bodies of one file differ from their first byte on. *)
let body_of_length seed len =
  String.init len (fun i -> Char.chr (((i * 131) + (len * 7) + (seed * 17)) land 0xff))

(* Every body length 0-2,100, in consecutive files of 1, 2, ..., 7, 1,
   ... frames (so full and short verification batches, and bodies of
   unequal lengths in one batch), reads back whole and clean. *)
let test_log_checksums_match_reference () =
  let path = Filename.concat (fresh_dir ()) "log" in
  Wire.Record_log.mkdirs (Filename.dirname path);
  let rec go len run =
    if len <= 2_100 then begin
      let lens = List.init run (fun k -> len + k) |> List.filter (fun l -> l <= 2_100) in
      let lens = if run mod 2 = 0 then List.rev lens else lens in
      let bodies = List.map (body_of_length run) lens in
      let data, _ = reference_log bodies in
      write_file path data;
      let frames, valid, clean = log_frames path in
      if frames <> List.map (fun b -> Wire.Record_log.Body b) bodies then
        Alcotest.failf "lengths from %d in a run of %d: frames differ" len run;
      Alcotest.(check bool) "clean" true clean;
      Alcotest.(check int) "valid = size" (String.length data) valid;
      go (len + List.length lens) ((run mod 7) + 1)
    end
  in
  go 0 1

(* One flipped byte, in a body or in a checksum, marks exactly its own
   frame [Corrupt], at every position of runs of 1-7 frames. *)
let test_log_flip_marks_one_frame () =
  let path = Filename.concat (fresh_dir ()) "log" in
  Wire.Record_log.mkdirs (Filename.dirname path);
  for run = 1 to 7 do
    let bodies = List.init run (fun k -> body_of_length k (1 + (k * 37 mod 200))) in
    let data, ends = reference_log bodies in
    let starts = String.length (Wire.Record_log.header "test") :: ends in
    List.iteri
      (fun j body ->
        let frame_end = List.nth ends j and frame_start = List.nth starts j in
        List.iter
          (fun pos ->
            let b = Bytes.of_string data in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
            write_file path (Bytes.to_string b);
            let frames, valid, clean = log_frames path in
            let expected =
              List.mapi
                (fun k body ->
                  if k = j then Wire.Record_log.Corrupt else Wire.Record_log.Body body)
                bodies
            in
            if frames <> expected then
              Alcotest.failf "run %d: a flip at %d is not frame %d alone" run pos j;
            Alcotest.(check bool) "not clean" false clean;
            Alcotest.(check int) "valid stops before the frame" frame_start valid)
          [ frame_end - 8 - String.length body; frame_end - 9; frame_end - 1 ])
      bodies
  done

(* store → corrupt one byte anywhere → load: any single-byte flip must
   never surface a wrong value. With [reseal], the flip lands in a frame
   body and the frame's checksum is recomputed over it, so the damage
   reaches the body parser: the load must still not raise or hang, and
   every value served is one a frame of the damaged file holds for that
   input, byte for byte. *)
let corrupt_one_byte_prop =
  qcheck_case ~name:"single byte flip never serves a wrong value"
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 1 255) bool)
    (fun (pos_seed, flip, reseal) ->
      let dir = fresh_dir () in
      let xs = inputs 7 and ys = [ "late-1"; "late-2"; "late-3" ] in
      fill_two_frames dir xs ys;
      let data = read_file (cache_file dir) in
      let b = Bytes.of_string data in
      (if reseal then begin
         let frames = frame_bodies data in
         let body, len = List.nth frames (pos_seed mod List.length frames) in
         let pos = body + (pos_seed / 7 mod len) in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
         Bytes.set_int64_be b (body + len) (fnv64 (Bytes.to_string b) body len)
       end
       else
         let pos = pos_seed mod Bytes.length b in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip)));
      write_file (cache_file dir) (Bytes.to_string b);
      let held = decodable_pairs (cache_file dir) in
      let c = Ecache.open_ ~dir () in
      let queries =
        List.map (fun x -> ("enc", "fp", x)) (xs @ ys)
        @ List.map (fun (ns, key_fp, x, _) -> (ns, key_fp, x)) held
      in
      let ok =
        List.for_all
          (fun (ns, key_fp, x) ->
            match Ecache.find c ~ns ~key_fp x with
            | None -> true
            | Some v -> List.mem (ns, key_fp, x, v) held && (reseal || String.equal v (value_of x)))
          queries
      in
      Ecache.close c;
      ok)

(* ------------------------------------------------------------------ *)
(* Eviction at flush, append-only flushes                              *)
(* ------------------------------------------------------------------ *)

let present c x = Option.is_some (Ecache.find c ~ns:"enc" ~key_fp:"fp" x)

(* One open/put/close cycle: one generation. *)
let session ?(max_entries = 4) dir f =
  let c = Ecache.open_ ~max_entries ~dir () in
  f c;
  Ecache.close c;
  c

let put c x = Ecache.put c ~ns:"enc" ~key_fp:"fp" x (value_of x)

(* The thrash case: a run whose working set exceeds [max_entries] keeps
   all of it, and the rerun hits in full. *)
let test_working_set_survives () =
  let dir = fresh_dir () in
  let xs = inputs 10 in
  (* The close after the flush finds nothing touched since: it neither
     ends the generation nor evicts. *)
  let c =
    session dir (fun c ->
        List.iter (put c) xs;
        Ecache.flush c)
  in
  Alcotest.(check int) "nothing evicted" 0 (Ecache.stats c).Ecache.evictions;
  let c = session dir (fun c -> List.iter (fun x -> ignore (present c x)) xs) in
  let s = Ecache.stats c in
  Alcotest.(check int) "every lookup hits" 10 s.Ecache.hits;
  Alcotest.(check int) "no misses" 0 s.Ecache.misses;
  (* A run that touches two of them leaves eight untouched past the
     bound of four: the flush drops down to the bound. *)
  let c = session dir (fun c -> List.iter (fun x -> ignore (present c x)) (inputs 2)) in
  Alcotest.(check int) "evicted to the bound" 6 (Ecache.stats c).Ecache.evictions;
  Alcotest.(check int) "bounded" 4 (Ecache.entries c)

let test_untouched_oldest_first () =
  let dir = fresh_dir () in
  List.iter (fun x -> ignore (session dir (fun c -> put c x))) [ "a"; "b"; "c"; "d" ];
  (* Six entries, three touched, bound four: two go, and they are the
     oldest-written untouched ones, across the reloads. *)
  let c =
    session dir (fun c ->
        Alcotest.(check bool) "a hits" true (present c "a");
        put c "e";
        put c "f")
  in
  Alcotest.(check int) "two evicted" 2 (Ecache.stats c).Ecache.evictions;
  ignore
    (session dir (fun c ->
         Alcotest.(check (list bool))
           "b and c gone; a (touched), d, e, f kept"
           [ true; false; false; true; true; true ]
           (List.map (present c) [ "a"; "b"; "c"; "d"; "e"; "f" ])))

let test_clean_flush_appends () =
  let dir = fresh_dir () in
  ignore (fill dir "enc" (inputs 20));
  let before = read_file (cache_file dir) in
  let ys = [ "new-a"; "new-b"; "new-c" ] in
  ignore (fill dir "enc" ys);
  let after = read_file (cache_file dir) in
  Alcotest.(check bool) "old bytes kept as they were" true
    (String.starts_with ~prefix:before after);
  (* The tail is whole frames that hold exactly the new entries. *)
  let tail = String.sub after (String.length before) (String.length after - String.length before) in
  let probe = Filename.concat dir "tail.psi" in
  write_file probe (ecache_header ^ tail);
  Alcotest.(check (list (pair string string)))
    "appended entries"
    (List.map (fun y -> (y, value_of y)) ys)
    (List.sort compare (file_entries probe))

(* Many flushes with churn and re-stored values: the store stays near
   its bound and the file never holds more superseded records than live
   entries. Churned rounds evict (and so rewrite); re-store-only rounds
   just append, until the superseded records force a compaction. *)
let test_churn_stays_compacted () =
  let dir = fresh_dir () in
  let latest = Hashtbl.create 64 in
  let store c x v =
    Hashtbl.replace latest x v;
    Ecache.put c ~ns:"enc" ~key_fp:"fp" x v
  in
  let live = ref (inputs 16) in
  let evictions = ref 0 and compactions = ref 0 and last_records = ref 0 in
  for round = 1 to 60 do
    let churn = round <= 30 in
    let fresh = if churn then List.init 2 (fun i -> Printf.sprintf "r%d-%d" round i) else [] in
    let c =
      session ~max_entries:16 dir (fun c ->
          List.iter (fun x -> ignore (present c x)) !live;
          List.iter (fun x -> store c x (value_of x)) fresh;
          List.iter
            (fun x -> store c x (Printf.sprintf "%s@%d" x round))
            (List.filteri (fun i _ -> i < 2) (List.rev !live)))
    in
    if churn then live := List.filteri (fun i _ -> i >= 2) !live @ fresh;
    evictions := !evictions + (Ecache.stats c).Ecache.evictions;
    let n = Ecache.entries c and records = List.length (file_entries (cache_file dir)) in
    if (not churn) && records < !last_records then incr compactions;
    last_records := records;
    (* The working set is the 16 live entries and the 2 fresh ones. *)
    if 7 * n > 8 * 18 || records > 2 * n then
      Alcotest.failf "round %d: %d entries, %d records in the file" round n records
  done;
  Alcotest.(check bool) "churn evicted" true (!evictions > 0);
  Alcotest.(check bool) "superseded records compacted" true (!compactions > 0);
  ignore
    (session ~max_entries:16 dir (fun c ->
         List.iter
           (fun x ->
             Alcotest.(check (option string))
               x (Some (Hashtbl.find latest x))
               (Ecache.find c ~ns:"enc" ~key_fp:"fp" x))
           !live))

(* The layout before slices held one frame per entry: the composite
   key "ns\x00key_fp\x00input", then the value. Such a file serves
   nothing, and the first flush that stores rewrites it. *)
let test_old_layout_rewritten () =
  let dir = fresh_dir () in
  let old_body x =
    let w = Wire.Buf.writer () in
    Wire.Buf.write_bytes w (String.concat "\x00" [ "enc"; "fp"; x ]);
    Wire.Buf.write_bytes w (value_of x);
    Wire.Buf.contents w
  in
  let xs = inputs 6 in
  Wire.Record_log.write ~kind:"ecache" (cache_file dir) (List.to_seq (List.map old_body xs));
  ignore
    (session dir (fun c ->
         Alcotest.(check (list bool)) "every lookup misses" (List.map (fun _ -> false) xs)
           (List.map (present c) xs);
         List.iter (put c) xs));
  Alcotest.(check (list (pair string string)))
    "rewritten in the current layout"
    (List.map (fun x -> (x, value_of x)) xs)
    (List.sort compare (file_entries (cache_file dir)))

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

(* A [compute] that records every list it is handed. *)
let recording () =
  let calls = ref [] in
  let compute xs =
    calls := xs :: !calls;
    List.map value_of xs
  in
  (calls, compute)

let test_batch_computes_misses_only () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~dir () in
  Ecache.put c ~ns:"enc" ~key_fp:"fp" "a" (value_of "a");
  let calls, compute = recording () in
  let xs = [ "a"; "b"; "c"; "b"; "a" ] in
  let got = Ecache.batch c ~ns:"enc" ~key_fp:"fp" ~compute xs in
  Alcotest.(check (list string)) "results in input order" (List.map value_of xs) got;
  Alcotest.(check (list (list string)))
    "one call, on the misses, in order, duplicates kept" [ [ "b"; "c"; "b" ] ] !calls;
  let s = Ecache.stats c in
  Alcotest.(check int) "hits" 2 s.Ecache.hits;
  Alcotest.(check int) "misses" 3 s.Ecache.misses;
  Alcotest.(check int) "puts" 3 s.Ecache.puts;
  Alcotest.(check int) "entries" 3 s.Ecache.entries;
  (* All hits now: [compute] is not called. *)
  Alcotest.(check (list string)) "warm results" (List.map value_of xs)
    (Ecache.batch c ~ns:"enc" ~key_fp:"fp" ~compute xs);
  Alcotest.(check int) "no further call" 1 (List.length !calls);
  Ecache.close c

(* Any inputs over a small alphabet, any stored subset: the results are
   what a per-element find-or-compute-and-put gives, [compute] sees
   exactly the inputs not stored, and every input counts one hit or one
   miss. *)
let batch_dir = lazy (fresh_dir ())

let batch_matches_per_element_prop =
  qcheck_case ~name:"batch = per-element find/put"
    QCheck2.Gen.(
      pair (list_size (int_range 0 40) (int_range 0 9)) (list_size (int_range 0 10) (int_range 0 9)))
    (fun (picks, stored) ->
      let name i = Printf.sprintf "v%d" i in
      let xs = List.map name picks in
      (* Neither cache is flushed, so both can open one empty dir. *)
      let open_with_stored () =
        let c = Ecache.open_ ~dir:(Lazy.force batch_dir) () in
        List.iter (fun i -> Ecache.put c ~ns:"enc" ~key_fp:"fp" (name i) (value_of (name i))) stored;
        c
      in
      let reference =
        let c = open_with_stored () in
        List.map
          (fun x ->
            match Ecache.find c ~ns:"enc" ~key_fp:"fp" x with
            | Some v -> v
            | None ->
                Ecache.put c ~ns:"enc" ~key_fp:"fp" x (value_of x);
                value_of x)
          xs
      in
      let c = open_with_stored () in
      let before = Ecache.stats c in
      let calls, compute = recording () in
      let got = Ecache.batch c ~ns:"enc" ~key_fp:"fp" ~compute xs in
      let after = Ecache.stats c in
      let misses = List.filter (fun i -> not (List.mem i stored)) picks in
      got = reference
      && List.concat !calls = List.map name misses
      && after.Ecache.hits - before.Ecache.hits + (after.Ecache.misses - before.Ecache.misses)
         = List.length xs
      && after.Ecache.misses - before.Ecache.misses = List.length misses)

let test_batch_length_change_raises () =
  let c = Ecache.open_ ~dir:(fresh_dir ()) () in
  Alcotest.check_raises "shorter result"
    (Invalid_argument "Ecache.batch: compute changed the batch length") (fun () ->
      ignore (Ecache.batch c ~ns:"enc" ~key_fp:"fp" ~compute:List.tl [ "a"; "b" ]));
  Alcotest.(check int) "nothing stored" 0 (Ecache.entries c);
  Ecache.close c

let test_batch_closed_raises () =
  let c = Ecache.open_ ~dir:(fresh_dir ()) () in
  Ecache.close c;
  let calls, compute = recording () in
  Alcotest.check_raises "batch on a closed cache"
    (Invalid_argument "Ecache: cache is closed") (fun () ->
      ignore (Ecache.batch c ~ns:"enc" ~key_fp:"fp" ~compute [ "a" ]));
  Alcotest.(check int) "compute not called" 0 (List.length !calls)

(* Both parties of an in-process run share one cache from two domains:
   each batches an overlapping range, a chunk at a time, so their
   look-ups and stores interleave. *)
let test_concurrent_batches_two_parties () =
  let dir = fresh_dir () in
  let c = Ecache.open_ ~dir () in
  let xs = inputs 200 in
  let party lo hi () =
    let mine = List.filteri (fun i _ -> i >= lo && i < hi) xs in
    Parallel.Pool.map_chunks_seq
      (fun chunk -> Ecache.batch c ~ns:"h2g:test" ~key_fp:"" ~compute:(List.map value_of) chunk)
      mine
    = List.map value_of mine
  in
  let a = Parallel.Pool.fork (party 0 150) and b = Parallel.Pool.fork (party 50 200) in
  Alcotest.(check bool) "first party's results" true (Parallel.Pool.await a);
  Alcotest.(check bool) "second party's results" true (Parallel.Pool.await b);
  Alcotest.(check int) "all entries present" 200 (Ecache.entries c);
  List.iter
    (fun x ->
      match Ecache.find c ~ns:"h2g:test" ~key_fp:"" x with
      | Some v -> Alcotest.(check string) "stored value" (value_of x) v
      | None -> Alcotest.fail ("missing after concurrent batches: " ^ x))
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
          Alcotest.test_case "loading counts no puts" `Quick test_load_counts_no_puts;
          Alcotest.test_case "loading promotes no block per entry" `Quick
            test_load_promotes_no_block_per_entry;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated file" `Quick test_truncated_file;
          Alcotest.test_case "flipped checksum byte" `Quick test_flipped_checksum_byte;
          Alcotest.test_case "corrupt entry is skipped" `Quick test_corrupt_entry_skipped;
          Alcotest.test_case "stale version header" `Quick test_stale_version_header;
          corrupt_one_byte_prop;
          Alcotest.test_case "older layout is rewritten" `Quick test_old_layout_rewritten;
        ] );
      ( "record log",
        [
          Alcotest.test_case "checksums equal the reference" `Quick
            test_log_checksums_match_reference;
          Alcotest.test_case "one flip marks one frame" `Quick test_log_flip_marks_one_frame;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "working set over the bound survives" `Quick
            test_working_set_survives;
          Alcotest.test_case "untouched go oldest-written first" `Quick
            test_untouched_oldest_first;
          Alcotest.test_case "clean flush appends new entries" `Quick
            test_clean_flush_appends;
          Alcotest.test_case "churned flushes stay compacted" `Quick
            test_churn_stays_compacted;
        ] );
      ( "batch",
        [
          Alcotest.test_case "computes misses only" `Quick test_batch_computes_misses_only;
          batch_matches_per_element_prop;
          Alcotest.test_case "length change raises" `Quick test_batch_length_change_raises;
          Alcotest.test_case "closed cache raises" `Quick test_batch_closed_raises;
          Alcotest.test_case "concurrent batches from two parties" `Quick
            test_concurrent_batches_two_parties;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "save then load" `Quick test_snapshot_save_load;
          snapshot_corruption_prop;
          Alcotest.test_case "load missing" `Quick test_snapshot_load_missing;
        ] );
    ]
