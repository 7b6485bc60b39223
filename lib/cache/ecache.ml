module Buf = Wire.Buf
module Log = Wire.Record_log

(* <dir>/ecache.psi is a record log of kind "ecache", one frame per
   entry; the body is Buf-framed (varint-prefixed key, then value).
   Read policy: a corrupt frame is skipped and an unframeable tail ends
   the load, so damage degrades to a cache miss — never to serving a
   wrong value. A flush rewrites the whole file. *)

let kind = "ecache"
let default_max_entries = 65536

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

(* Intrusive doubly-linked list for LRU order: head = most recent. *)
type node = {
  key : string;
  mutable value : string;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  dir : string;
  max_entries : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable count : int;
  mutable dirty : bool;
  mutable closed : bool;
  lock : Mutex.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_puts : int;
  mutable s_evictions : int;
  mutable s_corrupt : int;
  mutable s_loaded : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then invalid_arg "Ecache: cache is closed"

(* The composite key concatenates the three coordinates with a
   separator that cannot occur inside [ns] or a hex [key_fp], so
   distinct coordinates never alias. *)
let composite ~ns ~key_fp input = String.concat "\x00" [ ns; key_fp; input ]

let unlink t n =
  (match n.prev with None -> t.head <- n.next | Some p -> p.next <- n.next);
  (match n.next with None -> t.tail <- n.prev | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let evict_over_bound t =
  while t.count > t.max_entries do
    match t.tail with
    | None -> t.count <- 0
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.key;
        t.count <- t.count - 1;
        t.s_evictions <- t.s_evictions + 1;
        Obs.Metrics.incr c_evictions
  done

(* Insert without recency bookkeeping beyond push-to-front; caller
   holds the lock. *)
let insert t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      n.value <- value;
      unlink t n;
      push_front t n;
      t.dirty <- true
  | None ->
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n;
      t.count <- t.count + 1;
      t.s_puts <- t.s_puts + 1;
      Obs.Metrics.incr c_puts;
      t.dirty <- true;
      evict_over_bound t

(* ------------------------------------------------------------------ *)
(* Persistence                                                        *)
(* ------------------------------------------------------------------ *)

let cache_file dir = Filename.concat dir "ecache.psi"

let corrupt t =
  t.s_corrupt <- t.s_corrupt + 1;
  Obs.Metrics.incr c_corrupt

let load_frame t = function
  | Log.Corrupt -> corrupt t
  | Log.Body body -> (
      match
        let r = Buf.reader body in
        let key = Buf.read_bytes r in
        let value = Buf.read_bytes r in
        Buf.expect_end r;
        (key, value)
      with
      | exception Buf.Parse_error _ -> corrupt t
      | key, value ->
          insert t key value;
          (* [insert] counted a put; reclassify as a load. *)
          t.s_puts <- t.s_puts - 1;
          t.s_loaded <- t.s_loaded + 1;
          Obs.Metrics.incr c_loaded)

let load t =
  (match Log.fold ~kind (cache_file t.dir) ~init:() (fun () f -> load_frame t f) with
  | Log.Missing | Log.Read _ -> ()
  | Log.Foreign ->
      (* Another kind, version or format: every lookup misses and the
         next flush rewrites the file in the current one. *)
      corrupt t);
  t.dirty <- false

let entry_body n =
  let w = Buf.writer () in
  Buf.write_bytes w n.key;
  Buf.write_bytes w n.value;
  Buf.contents w

let flush t =
  with_lock t (fun () ->
      if t.dirty && not t.closed then begin
        (* Oldest first, so loading (which pushes to front) restores
           the same recency order. *)
        let rec bodies acc = function
          | None -> acc
          | Some n -> bodies (entry_body n :: acc) n.next
        in
        Log.write ~kind (cache_file t.dir) (bodies [] t.head);
        t.dirty <- false;
        Obs.Metrics.incr c_flushes
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
      tbl = Hashtbl.create 1024;
      head = None;
      tail = None;
      count = 0;
      dirty = false;
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

let find t ~ns ~key_fp input =
  with_lock t (fun () ->
      check_open t;
      match Hashtbl.find_opt t.tbl (composite ~ns ~key_fp input) with
      | Some n ->
          unlink t n;
          push_front t n;
          t.s_hits <- t.s_hits + 1;
          Obs.Metrics.incr c_hits;
          Some n.value
      | None ->
          t.s_misses <- t.s_misses + 1;
          Obs.Metrics.incr c_misses;
          None)

let put t ~ns ~key_fp input output =
  with_lock t (fun () ->
      check_open t;
      insert t (composite ~ns ~key_fp input) output)

(* Warm-up batch size: bounds how many computed-but-not-yet-stored
   outputs exist at once, so warming a million-element set holds one
   chunk of results, not all of them — and still feeds the pool batches
   large enough to amortize fan-out. *)
let warm_chunk = 4096

let warm t ?pool ~ns ~key_fp ~f inputs =
  (* Peek without touching hit/miss stats: warm-up is provisioning.
     Deduplicate (first occurrence wins) so [f] runs once per element,
     and compute outside the lock so pool workers never contend on it.
     Two racing warm-ups may both compute an element; [put] makes that
     an idempotent overwrite with the identical value. Chunked: each
     [warm_chunk]-sized slice is filtered, computed and stored before
     the next is touched, keeping peak memory O(chunk). *)
  let seen = Hashtbl.create 1024 in
  let rec take n acc l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> take (n - 1) (x :: acc) tl
  in
  let rec go inputs =
    match inputs with
    | [] -> ()
    | _ ->
        let chunk, rest = take warm_chunk [] inputs in
        let missing =
          with_lock t (fun () ->
              check_open t;
              List.filter
                (fun input ->
                  let k = composite ~ns ~key_fp input in
                  if Hashtbl.mem t.tbl k || Hashtbl.mem seen k then false
                  else begin
                    Hashtbl.replace seen k ();
                    true
                  end)
                chunk)
        in
        let outputs =
          match pool with
          | None -> List.map f missing
          | Some pool -> Parallel.Pool.map pool f missing
        in
        List.iter2 (fun input output -> put t ~ns ~key_fp input output) missing outputs;
        go rest
  in
  go inputs

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
