module Buf = Wire.Buf
module Log = Wire.Record_log

(* <dir>/ecache.psi is a record log of kind "ecache". Each frame holds
   one slice's [ns] and [key_fp] and the generation that wrote it, once,
   then a bounded batch of (input, value) pairs, all Buf-framed. Read
   policy: a corrupt frame is skipped and an unframeable tail ends the
   load, so damage degrades to a cache miss — never to serving a wrong
   value.

   Eviction happens at flush, never between flushes: a hit or a put
   marks its entry with the current generation, a flush ends the
   generation, and only entries left unmarked can be dropped then. A
   run's own working set therefore always survives the run. A clean
   flush appends the entries stored since the previous one; the file
   is rewritten only when the flush evicted, the load found damage or
   a foreign file, or superseded records outnumber live entries. *)

let kind = "ecache"
let default_max_entries = 65536

(* Untouched entries past the bound are dropped only once they make up
   this share (1/evict_share) of the store, so a run with little churn
   appends instead of rewriting the file every flush. *)
let evict_share = 8

(* A frame takes entries until their bytes reach this soft bound. A
   corrupt frame then loses only a few dozen entries, and reading a
   frame back allocates a body small enough for the minor heap (under
   256 words) instead of a major-heap block per frame. *)
let frame_bytes = 1536

let entry_bytes (input, value) = String.length input + String.length value

let c_hits = Obs.Metrics.counter "ecache.hits"
let c_misses = Obs.Metrics.counter "ecache.misses"
let c_puts = Obs.Metrics.counter "ecache.puts"
let c_evictions = Obs.Metrics.counter "ecache.evictions"
let c_corrupt = Obs.Metrics.counter "ecache.corrupt_entries"
let c_loaded = Obs.Metrics.counter "ecache.loaded_entries"
let c_flushes = Obs.Metrics.counter "ecache.flushes"

type stats = {
  hits : int;
  misses : int;
  puts : int;
  evictions : int;
  corrupt : int;
  loaded : int;
  entries : int;
}

module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

(* [gen] is the generation that last touched the entry (after a reload:
   the one that wrote it). *)
type entry = { value : string; mutable gen : int }

(* One [(ns, key_fp)] slice, keyed by the raw input. *)
type slice = {
  ns : string;
  key_fp : string;
  tbl : entry Tbl.t;
  mutable fresh : string list;
      (* inputs stored since the last flush, kept only while the file
         can be appended to *)
}

type t = {
  dir : string;
  max_entries : int;
  mutable slices : slice list;
  mutable generation : int;  (* the current one *)
  mutable count : int;
  mutable touched : int;  (* entries carrying [generation] *)
  mutable stored : int;  (* entries stored since the last flush *)
  mutable records : int;  (* entry records in the file, superseded ones included *)
  mutable valid : int option;
      (* end of the clean file this cache wrote or loaded, where the
         next append goes; [None]: the next write rewrites the file *)
  mutable closed : bool;
  lock : Mutex.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_puts : int;
  mutable s_evictions : int;
  mutable s_corrupt : int;
  mutable s_loaded : int;
}

let with_lock t f = Mutex.protect t.lock f

let check_open t = if t.closed then invalid_arg "Ecache: cache is closed"

let find_slice t ~ns ~key_fp =
  let rec go = function
    | [] -> None
    | s :: rest -> if String.equal s.ns ns && String.equal s.key_fp key_fp then Some s else go rest
  in
  go t.slices

let slice t ~ns ~key_fp =
  match find_slice t ~ns ~key_fp with
  | Some s -> s
  | None ->
      let s = { ns; key_fp; tbl = Tbl.create 1024; fresh = [] } in
      t.slices <- s :: t.slices;
      s

let touch t e =
  if e.gen <> t.generation then begin
    e.gen <- t.generation;
    t.touched <- t.touched + 1
  end

(* A file that will be rewritten anyway needs no list of what to
   append. *)
let note_stored t s input =
  t.stored <- t.stored + 1;
  if Option.is_some t.valid then s.fresh <- input :: s.fresh

(* Caller holds the lock. *)
let insert t s input value =
  match Tbl.find_opt s.tbl input with
  | Some e when String.equal e.value value -> touch t e
  | Some e ->
      if e.gen <> t.generation then t.touched <- t.touched + 1;
      Tbl.replace s.tbl input { value; gen = t.generation };
      note_stored t s input
  | None ->
      Tbl.add s.tbl input { value; gen = t.generation };
      t.count <- t.count + 1;
      t.touched <- t.touched + 1;
      t.s_puts <- t.s_puts + 1;
      Obs.Metrics.incr c_puts;
      note_stored t s input

(* ------------------------------------------------------------------ *)
(* Persistence                                                        *)
(* ------------------------------------------------------------------ *)

let cache_file dir = Filename.concat dir "ecache.psi"

let corrupt t =
  t.s_corrupt <- t.s_corrupt + 1;
  Obs.Metrics.incr c_corrupt

let decode_frame body =
  let r = Buf.reader body in
  let ns = Buf.read_bytes r in
  let key_fp = Buf.read_bytes r in
  let gen = Buf.read_varint r in
  let rec entries acc =
    if Buf.at_end r then List.rev acc
    else
      let input = Buf.read_bytes r in
      let value = Buf.read_bytes r in
      entries ((input, value) :: acc)
  in
  (ns, key_fp, gen, entries [])

(* A loaded entry keeps the generation that wrote it; a later record of
   the same input supersedes an earlier one. False when the frame
   yields nothing: corrupt, or checksummed but undecodable (a file in
   an older layout). *)
let load_frame t = function
  | Log.Corrupt ->
      corrupt t;
      false
  | Log.Body body -> (
      match decode_frame body with
      | exception Buf.Parse_error _ ->
          corrupt t;
          false
      | ns, key_fp, gen, entries ->
          let s = slice t ~ns ~key_fp in
          t.generation <- Int.max t.generation (gen + 1);
          List.iter
            (fun (input, value) ->
              t.records <- t.records + 1;
              if not (Tbl.mem s.tbl input) then begin
                t.count <- t.count + 1;
                t.s_loaded <- t.s_loaded + 1;
                Obs.Metrics.incr c_loaded
              end;
              Tbl.replace s.tbl input { value; gen })
            entries;
          true)

(* Only a file that loaded whole is appended to; anything else is
   rewritten by the next flush that has something to write. *)
let load t =
  match
    Log.fold ~kind (cache_file t.dir) ~init:true (fun whole f -> load_frame t f && whole)
  with
  | Log.Missing -> ()
  | Log.Read { acc = whole; valid; clean } -> if whole && clean then t.valid <- Some valid
  | Log.Foreign ->
      (* Another kind or record-log version: every lookup misses and
         the next flush rewrites the file in the current one. *)
      corrupt t

let frame_body s ~gen items =
  let w = Buf.writer () in
  Buf.write_bytes w s.ns;
  Buf.write_bytes w s.key_fp;
  Buf.write_varint w gen;
  List.iter
    (fun (input, value) ->
      Buf.write_bytes w input;
      Buf.write_bytes w value)
    items;
  Buf.contents w

(* [entries] of slice [s] as frames: one per generation and batch of
   about [frame_bytes]. Each frame names its generation, so frames of
   one generation need not be adjacent, and only one partial batch per
   generation is held at a time. *)
let frames s entries =
  let pending = Hashtbl.create 8 in
  let rec go entries () =
    match entries () with
    | Seq.Nil ->
        Seq.map (fun (gen, (_, items)) -> frame_body s ~gen items) (Hashtbl.to_seq pending) ()
    | Seq.Cons ((input, e), rest) ->
        let bytes, items = Option.value ~default:(0, []) (Hashtbl.find_opt pending e.gen) in
        let item = (input, e.value) in
        let bytes = bytes + entry_bytes item and items = item :: items in
        if bytes >= frame_bytes then begin
          Hashtbl.remove pending e.gen;
          Seq.Cons (frame_body s ~gen:e.gen items, go rest)
        end
        else begin
          Hashtbl.replace pending e.gen (bytes, items);
          go rest ()
        end
  in
  go entries

(* Every live entry, streamed from the tables. *)
let all_frames t = Seq.flat_map (fun s -> frames s (Tbl.to_seq s.tbl)) (List.to_seq t.slices)

(* The entries stored since the last flush. *)
let fresh_frames t =
  Seq.flat_map
    (fun s -> frames s (Seq.map (fun input -> (input, Tbl.find s.tbl input)) (List.to_seq s.fresh)))
    (List.to_seq t.slices)

(* Drop untouched entries, oldest generation first, down to
   [max max_entries touched] — once they are past [1/evict_share] of the
   store. Counting untouched entries per generation finds the cut-off
   generation: everything older goes, and as many of the cut-off one as
   the count still needs. Returns how many went. *)
let evict t =
  let excess = t.count - Int.max t.max_entries t.touched in
  if excess <= 0 || excess * evict_share < t.count then 0
  else begin
    let per_gen = Hashtbl.create 16 in
    List.iter
      (fun s ->
        Tbl.iter
          (fun _ e ->
            if e.gen <> t.generation then
              Hashtbl.replace per_gen e.gen
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_gen e.gen)))
          s.tbl)
      t.slices;
    let rec cut left = function
      | gen :: older ->
          let n = Hashtbl.find per_gen gen in
          if n >= left then (gen, left) else cut (left - n) older
      | [] -> (t.generation, 0)
    in
    let cut_gen, quota =
      cut excess (List.sort Int.compare (Hashtbl.fold (fun g _ acc -> g :: acc) per_gen []))
    in
    let quota = ref quota in
    List.iter
      (fun s ->
        Tbl.filter_map_inplace
          (fun _ e ->
            if e.gen < cut_gen then None
            else if e.gen = cut_gen && !quota > 0 then begin
              decr quota;
              None
            end
            else Some e)
          s.tbl)
      t.slices;
    t.count <- t.count - excess;
    t.s_evictions <- t.s_evictions + excess;
    Obs.Metrics.incr ~by:excess c_evictions;
    excess
  end

let flush t =
  with_lock t (fun () ->
      (* A generation nothing touched says nothing about the working
         set: it does not end, and nothing is evicted. *)
      if (not t.closed) && t.touched > 0 then begin
        let evicted = evict t in
        let path = cache_file t.dir in
        let written () =
          t.valid <- Some (Unix.stat path).Unix.st_size;
          Obs.Metrics.incr c_flushes
        in
        let rewrite () =
          Log.write ~kind path (all_frames t);
          t.records <- t.count;
          written ()
        in
        (match t.valid with
        | Some at when evicted = 0 && t.records + t.stored - t.count <= t.count ->
            if t.stored > 0 then begin
              let a = Log.open_append ~at ~kind path in
              Fun.protect ~finally:(fun () -> Log.close a) (fun () ->
                  Seq.iter (Log.append a) (fresh_frames t));
              t.records <- t.records + t.stored;
              written ()
            end
        | Some _ -> rewrite ()
        | None -> if evicted > 0 || t.stored > 0 then rewrite ());
        List.iter (fun s -> s.fresh <- []) t.slices;
        t.stored <- 0;
        t.generation <- t.generation + 1;
        t.touched <- 0
      end)

(* ------------------------------------------------------------------ *)
(* API                                                                *)
(* ------------------------------------------------------------------ *)

let open_ ?(max_entries = default_max_entries) ~dir () =
  if max_entries < 1 then invalid_arg "Ecache.open_: max_entries must be >= 1";
  Log.mkdirs dir;
  let t =
    {
      dir;
      max_entries;
      slices = [];
      generation = 1;
      count = 0;
      touched = 0;
      stored = 0;
      records = 0;
      valid = None;
      closed = false;
      lock = Mutex.create ();
      s_hits = 0;
      s_misses = 0;
      s_puts = 0;
      s_evictions = 0;
      s_corrupt = 0;
      s_loaded = 0;
    }
  in
  with_lock t (fun () -> load t);
  t

(* Caller holds the lock. [s] is the slice, if it exists yet. *)
let lookup t s input =
  match Option.bind s (fun s -> Tbl.find_opt s.tbl input) with
  | Some e ->
      touch t e;
      t.s_hits <- t.s_hits + 1;
      Some e.value
  | None ->
      t.s_misses <- t.s_misses + 1;
      None

(* One locked pass over [inputs]: what each one finds, in order, and
   the misses, in order with duplicates kept. *)
let look t ~ns ~key_fp inputs =
  with_lock t (fun () ->
      check_open t;
      let s = find_slice t ~ns ~key_fp in
      let hits = t.s_hits and misses = t.s_misses in
      let found, missed =
        List.fold_left
          (fun (found, missed) input ->
            match lookup t s input with
            | Some _ as v -> (v :: found, missed)
            | None -> (None :: found, input :: missed))
          ([], []) inputs
      in
      Obs.Metrics.incr ~by:(t.s_hits - hits) c_hits;
      Obs.Metrics.incr ~by:(t.s_misses - misses) c_misses;
      (List.rev found, List.rev missed))

(* One locked pass storing [outputs] for [inputs]. *)
let store t ~ns ~key_fp inputs outputs =
  with_lock t (fun () ->
      check_open t;
      let s = slice t ~ns ~key_fp in
      List.iter2 (insert t s) inputs outputs)

(* The hits of [found] in place, and the [computed] misses, in order,
   in the gaps. *)
let stitch found computed =
  let rec go acc computed = function
    | [] -> List.rev acc
    | Some v :: found -> go (v :: acc) computed found
    | None :: found -> (
        match computed with
        | c :: computed -> go (c :: acc) computed found
        | [] -> invalid_arg "Ecache.batch: fewer results than misses")
  in
  go [] computed found

let find t ~ns ~key_fp input =
  match look t ~ns ~key_fp [ input ] with [ Some v ], _ -> Some v | _ -> None

let put t ~ns ~key_fp input output = store t ~ns ~key_fp [ input ] [ output ]

(* [compute] runs on the caller, outside the lock and outside the
   spans, so the spans time the cache's own work only. Two callers that
   miss on one input both compute it; the second store finds the same
   value and only touches it. *)
let batch t ~ns ~key_fp ~compute inputs =
  let found, misses = Obs.Span.with_ "ecache/batch" (fun () -> look t ~ns ~key_fp inputs) in
  match misses with
  | [] -> stitch found []
  | _ ->
      let computed = compute misses in
      if List.compare_lengths computed misses <> 0 then
        invalid_arg "Ecache.batch: compute changed the batch length";
      Obs.Span.with_ "ecache/batch" (fun () ->
          store t ~ns ~key_fp misses computed;
          stitch found computed)

let close t =
  flush t;
  with_lock t (fun () -> t.closed <- true)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.s_hits;
        misses = t.s_misses;
        puts = t.s_puts;
        evictions = t.s_evictions;
        corrupt = t.s_corrupt;
        loaded = t.s_loaded;
        entries = t.count;
      })

let entries t = with_lock t (fun () -> t.count)
