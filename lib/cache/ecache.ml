module Log = Wire.Record_log

(* <dir>/ecache.psi is a record log of kind "ecache". Each frame holds
   one slice's [ns] and [key_fp] and the generation that wrote it, once,
   then a bounded batch of (input, value) pairs, all Buf-framed. Read
   policy: a corrupt frame is skipped and an unframeable tail ends the
   load, so damage degrades to a cache miss — never to serving a wrong
   value.

   In memory a slice is those same frame bodies, as the load read them
   or as stores built them, plus an open-addressed index of positions in
   them: loading indexes each frame where it lies, a look-up compares
   the query against the bytes in place, and the bodies a generation
   built are, sealed, the frames its flush appends.

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

(* A frame takes entries until their bytes reach this soft bound, so a
   corrupt frame loses only a few dozen entries. A body is kept for as
   long as the cache is open, and one of at most [body_bytes] (128
   words) lives in the major heap's size-classed pools once promoted;
   a larger one is a block of its own from the C allocator, and a cache
   reloaded every run then leaves the C heap fragmented (8-12 MiB more
   peak RSS over 22 warm 1%-churn reruns of 20k elements per side, with
   frames of 1536 bytes). Entries of up to 120 bytes keep a body within
   [body_bytes]. *)
let frame_bytes = 896
let body_bytes = 1016

let c_hits = Obs.Metrics.counter "ecache.hits"
let c_misses = Obs.Metrics.counter "ecache.misses"
let c_puts = Obs.Metrics.counter "ecache.puts"
let c_evictions = Obs.Metrics.counter "ecache.evictions"
let c_corrupt = Obs.Metrics.counter "ecache.corrupt_entries"
let c_loaded = Obs.Metrics.counter "ecache.loaded_entries"
let c_flushes = Obs.Metrics.counter "ecache.flushes"
let c_lock_waits = Obs.Metrics.counter "ecache.lock_waits"

type stats = {
  hits : int;
  misses : int;
  puts : int;
  evictions : int;
  corrupt : int;
  loaded : int;
  entries : int;
}

(* ------------------------------------------------------------------ *)
(* Bodies, read in place                                               *)
(* ------------------------------------------------------------------ *)

(* A body is [ns | key_fp | gen | (input | value)*]: [gen] a LEB128
   integer, every other field a LEB128 length and that many bytes, as
   [Buf.write_varint]/[Buf.write_bytes] write them. Each reader below is
   total on any bytes: it answers -1 where a field would run past the
   body's end, so nothing is indexed or copied before it is bounded. *)

let rec width_from n w = if n < 0x80 then w else width_from (n lsr 7) (w + 1)
let width n = if n < 0x80 then 1 else width_from (n lsr 7) 2

(* The LEB128 integer at [p], or -1 when it runs past [stop], takes
   more than five bytes, or is not the shortest encoding (the one a
   writer produces, so [width] gives where it ends). *)
let rec varint_from s stop p i shift acc =
  if i >= stop || shift > 28 then -1
  else
    let c = Char.code s.[i] in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 <> 0 then varint_from s stop p (i + 1) (shift + 7) acc
    else if i + 1 - p = width acc then acc
    else -1

let varint s p stop =
  if p < stop && Char.code s.[p] < 0x80 then Char.code s.[p] else varint_from s stop p p 0 0

(* Where the length-prefixed field at [p] ends, or -1. *)
let field_end s p stop =
  if p < 0 then -1
  else
    let len = varint s p stop in
    if len < 0 || len > stop - p - width len then -1 else p + width len + len

(* Where a body's entries start: past [ns], [key_fp] and [gen]; or -1. *)
let entries_start s =
  let stop = String.length s in
  let g = field_end s (field_end s 0 stop) stop in
  if g < 0 then -1
  else
    let gen = varint s g stop in
    if gen < 0 then -1 else g + width gen

(* The generation a well-formed body names. *)
let gen_of s =
  let stop = String.length s in
  varint s (field_end s (field_end s 0 stop) stop) stop

(* The bytes of the well-formed field at [p]. *)
let field s p =
  let len = varint s p (String.length s) in
  String.sub s (p + width len) len

(* The number of entries from [p] to the end of [s], or -1 unless they
   fill it exactly. *)
let rec count_entries s p n =
  let stop = String.length s in
  if p = stop then n
  else
    let q = field_end s (field_end s p stop) stop in
    if q < 0 then -1 else count_entries s q (n + 1)

(* A multiplicative hash of [len] bytes at [off], eight at a time, then
   mixed so that each of the low 30 bits (the tag an index slot keeps)
   depends on every byte. *)
let hash s off len =
  let h = ref len and i = ref off and stop = off + len in
  while !i + 8 <= stop do
    h := (!h lxor Int64.to_int (String.get_int64_le s !i)) * 0x100000001b3;
    h := !h lxor (!h lsr 31);
    i := !i + 8
  done;
  while !i < stop do
    h := (!h lxor Char.code s.[!i]) * 0x100000001b3;
    incr i
  done;
  let h = (!h lxor (!h lsr 32)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

(* [n] bytes of [a] at [ai] equal those of [b] at [bi]. *)
let rec same a ai b bi n =
  if n >= 8 then
    Int64.equal (String.get_int64_le a ai) (String.get_int64_le b bi)
    && same a (ai + 8) b (bi + 8) (n - 8)
  else n = 0 || (Char.equal a.[ai] b.[bi] && same a (ai + 1) b (bi + 1) (n - 1))

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

(* A body under construction: [buf] holds [fill] bytes, the header
   first. *)
type builder = { mutable buf : Bytes.t; mutable fill : int }

let reserve bl n =
  if bl.fill + n > Bytes.length bl.buf then begin
    let buf = Bytes.create (Int.max (2 * Bytes.length bl.buf) (bl.fill + n)) in
    Bytes.blit bl.buf 0 buf 0 bl.fill;
    bl.buf <- buf
  end

let rec add_varint bl n =
  if n < 0x80 then begin
    Bytes.set bl.buf bl.fill (Char.chr n);
    bl.fill <- bl.fill + 1
  end
  else begin
    Bytes.set bl.buf bl.fill (Char.chr (0x80 lor (n land 0x7f)));
    bl.fill <- bl.fill + 1;
    add_varint bl (n lsr 7)
  end

let add_field bl s =
  let len = String.length s in
  reserve bl (width len + len);
  add_varint bl len;
  Bytes.blit_string s 0 bl.buf bl.fill len;
  bl.fill <- bl.fill + len

let start bl ~ns ~key_fp ~gen =
  if Bytes.length bl.buf < body_bytes then bl.buf <- Bytes.create body_bytes;
  bl.fill <- 0;
  add_field bl ns;
  add_field bl key_fp;
  reserve bl (width gen);
  add_varint bl gen

(* An index slot is two words: the position of an entry, packed as its
   body's number and its offset there, or [empty]; then the entry's tag,
   the low 30 bits of its input's hash, above the generation that last
   touched it (after a reload: the one that wrote it). Side by side, a
   hit reads and touches one cache line; with the tag, a probe reads a
   body only where the hashes agree, and growing the index reads none. *)
let empty = -1
let low32 = (1 lsl 32) - 1
let pack id off = (id lsl 32) lor off
let tag_of h = h land ((1 lsl 30) - 1)

(* One [(ns, key_fp)] slice. Its entries lie in [bodies.(0 ..
   sealed - 1)] and in [open_] (body number [sealed]) when that is
   started. [slots] is the index, open-addressed with linear probing:
   slot [i] is [slots.(2i)] and [slots.(2i+1)]. *)
type slice = {
  ns : string;
  key_fp : string;
  mutable bodies : string array;
  mutable sealed : int;
  mutable written : int;  (* bodies up to here are in the file *)
  open_ : builder;  (* [fill = 0]: none started *)
  mutable slots : int array;
  mutable live : int;
  mutable records : int;  (* entry records in the bodies, superseded included *)
}

(* An empty slot's second word is never read. *)
let new_slots cap = Array.make (2 * cap) empty

let new_slice ns key_fp =
  {
    ns;
    key_fp;
    bodies = [||];
    sealed = 0;
    written = 0;
    open_ = { buf = Bytes.empty; fill = 0 };
    slots = new_slots 16;
    live = 0;
    records = 0;
  }

let mask s = (Array.length s.slots / 2) - 1
let pos s i = s.slots.(2 * i)
let tag s i = s.slots.((2 * i) + 1) lsr 32
let gen s i = s.slots.((2 * i) + 1) land low32

let set s i p tg g =
  s.slots.(2 * i) <- p;
  s.slots.((2 * i) + 1) <- (tg lsl 32) lor g

(* The open body is read only here, transiently, under the lock; it is
   never held past the call that reads it. *)
let body s p =
  let id = p lsr 32 in
  if id < s.sealed then s.bodies.(id) else Bytes.unsafe_to_string s.open_.buf

let push_body s b =
  if s.sealed = Array.length s.bodies then begin
    let bodies = Array.make (Int.max 8 (2 * s.sealed)) "" in
    Array.blit s.bodies 0 bodies 0 s.sealed;
    s.bodies <- bodies
  end;
  s.bodies.(s.sealed) <- b;
  s.sealed <- s.sealed + 1

let seal s =
  if s.open_.fill > 0 then begin
    push_body s (Bytes.sub_string s.open_.buf 0 s.open_.fill);
    s.open_.fill <- 0
  end

(* The slot holding the input [q.[off .. off + len - 1]], whose tag is
   [tg], or the empty slot where it would go. *)
let rec find_slot s q off len tg i =
  let p = pos s i in
  if p = empty then i
  else if
    tag s i = tg
    &&
    let b = body s p and e = p land low32 in
    varint b e (String.length b) = len && same b (e + width len) q off len
  then i
  else find_slot s q off len tg ((i + 1) land mask s)

(* A tag's home slot is its top bits, as many as the index needs: the
   home at every size keeps the order of the homes at the largest, so
   entries that arrive in the order of their slots (a file a compaction
   or an earlier index wrote) fill a growing index front to back
   instead of piling into one run. *)
let home s tg = (tg * (mask s + 1)) lsr 30

let slot_in s q off len tg = find_slot s q off len tg (home s tg)

let rec free_slot s i = if pos s i = empty then i else free_slot s ((i + 1) land mask s)

(* Index sizes are powers of two, at most three quarters full. *)
let rec capacity_for n c = if 4 * n <= 3 * c then c else capacity_for n (2 * c)

(* Make room for one more entry: re-slot every entry by its tag. *)
let grow s =
  let cap = capacity_for (s.live + 1) (mask s + 1) in
  if cap > mask s + 1 then begin
    let old = s.slots in
    s.slots <- new_slots cap;
    for i = 0 to (Array.length old / 2) - 1 do
      let p = old.(2 * i) and w = old.((2 * i) + 1) in
      if p <> empty then begin
        let j = free_slot s (home s (w lsr 32)) in
        s.slots.(2 * j) <- p;
        s.slots.((2 * j) + 1) <- w
      end
    done
  end

(* [f off at len] for each entry of the well-formed body [b], in order:
   the entry starts at [off], its input is [len] bytes at [at]. *)
let iter_entries b f =
  let stop = String.length b in
  let rec go off =
    if off < stop then begin
      let len = varint b off stop in
      let at = off + width len in
      f off at len;
      go (field_end b (at + len) stop)
    end
  in
  go (entries_start b)

(* Index body [id] (sealed, well-formed) under the generation it names:
   a later record of an input supersedes an earlier one. *)
let index_body s id =
  let b = s.bodies.(id) in
  let g = gen_of b in
  iter_entries b (fun off at len ->
      grow s;
      let tg = tag_of (hash b at len) in
      let i = slot_in s b at len tg in
      if pos s i = empty then s.live <- s.live + 1;
      set s i (pack id off) tg g)

(* Index every body afresh, at a size that holds all their records. *)
let reindex s =
  s.slots <- new_slots (capacity_for s.records 16);
  s.live <- 0;
  for id = 0 to s.sealed - 1 do
    index_body s id
  done

(* The generation an evicted entry carries until the compaction that
   follows drops it; no frame names it. *)
let gone = low32

(* Re-frame the live entries in the order their records lie, one batch
   of bodies per generation, and index them afresh: superseded records
   and evicted entries are gone. *)
let compact s =
  seal s;
  let pending = Hashtbl.create 8 and out = ref [] in
  let keep b off g =
    let bl =
      match Hashtbl.find_opt pending g with
      | Some bl -> bl
      | None ->
          let bl = { buf = Bytes.empty; fill = 0 } in
          start bl ~ns:s.ns ~key_fp:s.key_fp ~gen:g;
          Hashtbl.replace pending g bl;
          bl
    in
    let stop = String.length b in
    let len = field_end b (field_end b off stop) stop - off in
    reserve bl len;
    Bytes.blit_string b off bl.buf bl.fill len;
    bl.fill <- bl.fill + len;
    if bl.fill >= frame_bytes then begin
      out := Bytes.sub_string bl.buf 0 bl.fill :: !out;
      Hashtbl.remove pending g
    end
  in
  for id = 0 to s.sealed - 1 do
    let b = s.bodies.(id) in
    iter_entries b (fun off at len ->
        let i = slot_in s b at len (tag_of (hash b at len)) in
        if pos s i = pack id off && gen s i <> gone then keep b off (gen s i))
  done;
  Hashtbl.iter (fun _ bl -> out := Bytes.sub_string bl.buf 0 bl.fill :: !out) pending;
  s.bodies <- Array.of_list (List.rev !out);
  s.sealed <- Array.length s.bodies;
  s.records <- s.live;
  reindex s

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  max_entries : int;
  mutable slices : slice list;
  mutable generation : int;  (* the current one *)
  mutable count : int;
  mutable touched : int;  (* entries carrying [generation] *)
  mutable stored : int;  (* entry records stored since the last flush *)
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

(* A lock another party holds is a wait: counted, then taken. *)
let with_lock t f =
  if not (Mutex.try_lock t.lock) then begin
    Mutex.lock t.lock;
    Obs.Metrics.incr c_lock_waits
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

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
      let s = new_slice ns key_fp in
      t.slices <- s :: t.slices;
      s

let touch t s i =
  if gen s i <> t.generation then begin
    set s i (pos s i) (tag s i) t.generation;
    t.touched <- t.touched + 1
  end

(* Write [(input, value)] into the slice's open body, started under
   the current generation if need be: its position. The body is sealed
   once it reaches [frame_bytes]. *)
let add_entry t s input value =
  let bl = s.open_ in
  if bl.fill = 0 then start bl ~ns:s.ns ~key_fp:s.key_fp ~gen:t.generation;
  let p = pack s.sealed bl.fill in
  add_field bl input;
  add_field bl value;
  s.records <- s.records + 1;
  t.stored <- t.stored + 1;
  if bl.fill >= frame_bytes then seal s;
  p

let value_equal s p value =
  let b = body s p and off = p land low32 in
  let stop = String.length b in
  let v = field_end b off stop in
  let len = varint b v stop in
  len = String.length value && same b (v + width len) value 0 len

let value_at s p =
  let b = body s p and off = p land low32 in
  let stop = String.length b in
  let v = field_end b off stop in
  field b v

let slot_of s input tg = slot_in s input 0 (String.length input) tg
let input_tag input = tag_of (hash input 0 (String.length input))

(* Caller holds the lock. *)
let insert t s input value =
  grow s;
  let tg = input_tag input in
  let i = slot_of s input tg in
  let p = pos s i in
  if p <> empty && value_equal s p value then touch t s i
  else begin
    if p = empty then begin
      s.live <- s.live + 1;
      t.count <- t.count + 1;
      t.s_puts <- t.s_puts + 1;
      Obs.Metrics.incr c_puts
    end;
    if p = empty || gen s i <> t.generation then t.touched <- t.touched + 1;
    set s i (add_entry t s input value) tg t.generation
  end

(* ------------------------------------------------------------------ *)
(* Persistence                                                        *)
(* ------------------------------------------------------------------ *)

let cache_file dir = Filename.concat dir "ecache.psi"

let corrupt t =
  t.s_corrupt <- t.s_corrupt + 1;
  Obs.Metrics.incr c_corrupt

(* A frame is kept only if it parses to its last byte (and its offsets
   and generation fit their slot fields). False when it yields nothing:
   corrupt, or checksummed but unparseable (a file in an older
   layout). *)
let load_frame t = function
  | Log.Corrupt ->
      corrupt t;
      false
  | Log.Body b ->
      let start = entries_start b in
      let n =
        if start < 0 || String.length b > low32 || gen_of b >= gone then -1
        else count_entries b start 0
      in
      if n < 0 then begin
        corrupt t;
        false
      end
      else begin
        let s = slice t ~ns:(field b 0) ~key_fp:(field b (field_end b 0 (String.length b))) in
        t.generation <- Int.max t.generation (gen_of b + 1);
        push_body s b;
        s.written <- s.sealed;
        s.records <- s.records + n;
        t.records <- t.records + n;
        true
      end

(* Only a file that loaded whole is appended to; anything else is
   rewritten by the next flush that has something to write. Once the
   file is read, each slice is indexed in one pass over its bodies, in
   file order, at the size its records need. *)
let load t =
  (match
     Log.fold ~kind (cache_file t.dir) ~init:true (fun whole f -> load_frame t f && whole)
   with
  | Log.Missing -> ()
  | Log.Read { acc = whole; valid; clean } -> if whole && clean then t.valid <- Some valid
  | Log.Foreign ->
      (* Another kind or record-log version: every lookup misses and
         the next flush rewrites the file in the current one. *)
      corrupt t);
  if t.slices <> [] then
    Obs.Span.with_ "ecache/index" (fun () ->
        List.iter
          (fun s ->
            reindex s;
            t.count <- t.count + s.live;
            t.s_loaded <- t.s_loaded + s.live;
            Obs.Metrics.incr ~by:s.live c_loaded)
          t.slices)

let bodies_from s first = Seq.init (s.sealed - first) (fun i -> s.bodies.(first + i))

(* Drop untouched entries, oldest generation first, down to
   [max max_entries touched] — once they are past [1/evict_share] of the
   store. Counting untouched entries per generation finds the cut-off
   generation: everything older goes, and as many of the cut-off one as
   the count still needs. They are marked [gone]; the rewrite that
   follows compacts. Returns how many went. *)
let evict t =
  let excess = t.count - Int.max t.max_entries t.touched in
  if excess <= 0 || excess * evict_share < t.count then 0
  else begin
    let per_gen = Hashtbl.create 16 in
    let untouched f s =
      for i = 0 to mask s do
        if pos s i <> empty && gen s i <> t.generation then f s i
      done
    in
    List.iter
      (untouched (fun s i ->
           let g = gen s i in
           Hashtbl.replace per_gen g (1 + Option.value ~default:0 (Hashtbl.find_opt per_gen g))))
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
      (untouched (fun s i ->
           let g = gen s i in
           if g < cut_gen || (g = cut_gen && !quota > 0) then begin
             if g = cut_gen then decr quota;
             set s i (pos s i) (tag s i) gone;
             s.live <- s.live - 1
           end))
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
          List.iter (fun s -> s.written <- s.sealed) t.slices;
          t.valid <- Some (Unix.stat path).Unix.st_size;
          Obs.Metrics.incr c_flushes
        in
        (* A slice holding superseded or evicted records is compacted
           before the write: should the write fail, its index is whole
           and the next flush rewrites. *)
        let rewrite () =
          List.iter (fun (s : slice) -> if s.records > s.live then compact s) t.slices;
          t.valid <- None;
          Log.write ~kind path (Seq.flat_map (fun s -> bodies_from s 0) (List.to_seq t.slices));
          t.records <- t.count;
          written ()
        in
        List.iter seal t.slices;
        (match t.valid with
        | Some at when evicted = 0 && t.records + t.stored - t.count <= t.count ->
            if t.stored > 0 then begin
              let a = Log.open_append ~at ~kind path in
              Fun.protect ~finally:(fun () -> Log.close a) (fun () ->
                  List.iter (fun s -> Seq.iter (Log.append a) (bodies_from s s.written)) t.slices);
              t.records <- t.records + t.stored;
              written ()
            end
        | Some _ -> rewrite ()
        | None -> if evicted > 0 || t.stored > 0 then rewrite ());
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

(* Caller holds the lock. The position of [input]'s entry, touched, or
   [empty]. *)
let lookup t s input =
  let i = slot_of s input (input_tag input) in
  let p = pos s i in
  if p <> empty then touch t s i;
  p

(* One locked pass over [inputs]: what each one finds, in order, with
   the input itself where it finds nothing, and the ascending indices of
   those misses. *)
let look t ~ns ~key_fp inputs =
  with_lock t (fun () ->
      check_open t;
      let s = find_slice t ~ns ~key_fp in
      let rec go i found missed = function
        | [] -> (List.rev found, List.rev missed)
        | input :: rest ->
            let p = match s with Some s -> lookup t s input | None -> empty in
            if p = empty then go (i + 1) (input :: found) (i :: missed) rest
            else go (i + 1) (value_at (Option.get s) p :: found) missed rest
      in
      let found, missed = go 0 [] [] inputs in
      let misses = List.length missed in
      let hits = List.length found - misses in
      t.s_hits <- t.s_hits + hits;
      t.s_misses <- t.s_misses + misses;
      Obs.Metrics.incr ~by:hits c_hits;
      Obs.Metrics.incr ~by:misses c_misses;
      (found, missed))

(* One locked pass storing [outputs] for [inputs]. *)
let store t ~ns ~key_fp inputs outputs =
  with_lock t (fun () ->
      check_open t;
      let s = slice t ~ns ~key_fp in
      List.iter2 (insert t s) inputs outputs)

let find t ~ns ~key_fp input =
  match look t ~ns ~key_fp [ input ] with [ v ], [] -> Some v | _ -> None

let put t ~ns ~key_fp input output = store t ~ns ~key_fp [ input ] [ output ]

(* [compute] runs on the caller, outside the lock and outside the
   spans, so the spans time the cache's own work only. Two callers that
   miss on one input both compute it; the second store finds the same
   value and only touches it. *)
(* The elements of [xs] at the ascending indices [at]. *)
let pick xs at =
  let rec go acc i xs at =
    match (xs, at) with
    | x :: xs, j :: at' when i = j -> go (x :: acc) (i + 1) xs at'
    | _ :: xs, _ :: _ -> go acc (i + 1) xs at
    | _, [] | [], _ -> List.rev acc
  in
  go [] 0 xs at

(* [xs] with the elements at the ascending indices [at] replaced, in
   order, by [ys]. *)
let fill xs at ys =
  let rec go acc i xs at ys =
    match (xs, at, ys) with
    | _ :: xs, j :: at', y :: ys' when i = j -> go (y :: acc) (i + 1) xs at' ys'
    | x :: xs, _, _ -> go (x :: acc) (i + 1) xs at ys
    | [], _, _ -> List.rev acc
  in
  go [] 0 xs at ys

let batch t ~ns ~key_fp ~compute inputs =
  let found, missed = Obs.Span.with_ "ecache/batch" (fun () -> look t ~ns ~key_fp inputs) in
  match missed with
  | [] -> found
  | _ ->
      let misses = pick found missed in
      let computed = compute misses in
      if List.compare_lengths computed misses <> 0 then
        invalid_arg "Ecache.batch: compute changed the batch length";
      Obs.Span.with_ "ecache/batch" (fun () ->
          store t ~ns ~key_fp misses computed;
          fill found missed computed)

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
