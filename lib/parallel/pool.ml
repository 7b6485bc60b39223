(* A fixed-size domain pool with chunked, order-preserving map.

   Design constraints, in order of importance:

   - Determinism: results must not depend on the pool size or on
     scheduling. Chunk boundaries are therefore a fixed function of the
     input length — [chunk] items per task regardless of worker count —
     and every chunk writes into its own slot of a preallocated output
     array, so [map pool f xs = List.map f xs] observationally.

   - Caller friendliness: an in-process protocol run drives its
     receiver from the caller's thread and its sender from a party
     domain started by [fork] below (a systhread of the caller's domain
     when no core is free), and both may call [map] on the same pool
     concurrently. Callers help drain the shared queue while they wait
     (recorded as [pool.caller_chunks]), so a map can never deadlock
     behind another caller's chunks, and a pool of [k] workers gives
     [k + callers] lanes of progress.

   - Nesting: [f] running on a pool worker must not submit to the same
     pool and block — that can deadlock once all workers are waiting.
     A map issued from inside a worker of the same pool runs the
     chunks inline instead.

   All [Domain.spawn]/[Domain.join] in the codebase lives here, behind
   the pool and [fork]; the DOM01 lint rule keeps it that way. *)

type task = { run : unit -> unit }

type shared = {
  mutex : Mutex.t;
  work : Condition.t;  (* queued a task, or shutting down *)
  queue : task Queue.t;
  mutable stop : bool;
}

type t = {
  size : int;  (* worker domains; 0 = sequential pool *)
  chunk : int;
  shared : shared option;  (* [None] iff sequential *)
  mutable domains : unit Domain.t list;
  worker_ids : int array;  (* filled by each worker at startup *)
  mutable closed : bool;
}

(* Telemetry ---------------------------------------------------------- *)

let m_maps = Obs.Metrics.counter "pool.maps"
let m_chunks = Obs.Metrics.counter "pool.chunks"
let m_items = Obs.Metrics.counter "pool.items"
let m_seq_fallbacks = Obs.Metrics.counter "pool.seq_fallbacks"
let m_caller_chunks = Obs.Metrics.counter "pool.caller_chunks"
let m_busy_ns = Obs.Metrics.counter "pool.busy_ns"
let m_wall_ns = Obs.Metrics.counter "pool.wall_ns"
let g_workers = Obs.Metrics.gauge "pool.workers"
let h_chunk_ns = Obs.Metrics.histogram "pool.chunk_ns"

(* Pool lifecycle ----------------------------------------------------- *)

let default_chunk = 16
let default_jobs () = Domain.recommended_domain_count ()

let worker_loop shared ids slot =
  ids.(slot) <- (Domain.self () :> int);
  let rec loop () =
    Mutex.lock shared.mutex;
    while Queue.is_empty shared.queue && not shared.stop do
      Condition.wait shared.work shared.mutex
    done;
    (* Drain outstanding work even when stopping, so [shutdown] never
       strands a submitted chunk. *)
    if Queue.is_empty shared.queue then Mutex.unlock shared.mutex
    else begin
      let task = Queue.pop shared.queue in
      Mutex.unlock shared.mutex;
      task.run ();
      loop ()
    end
  in
  loop ()

let sequential chunk =
  { size = 0; chunk; shared = None; domains = []; worker_ids = [||]; closed = false }

let stop_workers shared domains =
  Mutex.protect shared.mutex (fun () ->
      shared.stop <- true;
      Condition.broadcast shared.work);
  List.iter Domain.join domains

let create ?(chunk = default_chunk) ?(force = false) size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  if chunk < 1 then invalid_arg "Pool.create: chunk must be >= 1";
  if size = 1 || ((not force) && Domain.recommended_domain_count () = 1) then
    (* Sequential pool: no domains, maps run on the caller. A size
       above 1 on a single-core host still degrades gracefully. *)
    sequential chunk
  else begin
    let shared =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        queue = Queue.create ();
        stop = false;
      }
    in
    let worker_ids = Array.make size (-1) in
    (* The runtime caps live domains far below what a caller may ask
       for; when a spawn fails, join the workers already running and
       degrade to the sequential pool instead of leaking them. *)
    let rec spawn slot acc =
      if slot = size then Some (List.rev acc)
      else
        match Domain.spawn (fun () -> worker_loop shared worker_ids slot) with
        | d -> spawn (slot + 1) (d :: acc)
        | exception Failure _ ->
            stop_workers shared acc;
            None
    in
    match spawn 0 [] with
    | None -> sequential chunk
    | Some domains ->
        Obs.Metrics.set g_workers (float_of_int size);
        { size; chunk; shared = Some shared; domains; worker_ids; closed = false }
  end

let size t = if t.size = 0 then 1 else t.size

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    (match t.shared with
    | None -> ()
    | Some shared -> stop_workers shared t.domains);
    t.domains <- []
  end

let check_open t = if t.closed then invalid_arg "Pool: pool is shut down"

let on_worker t =
  let self = (Domain.self () :> int) in
  Array.exists (fun id -> id = self) t.worker_ids

(* Chunked execution -------------------------------------------------- *)

(* Chunk boundaries for [n] items: [start, stop) pairs of fixed width
   [t.chunk], independent of pool size (determinism). *)
let chunk_bounds chunk n =
  let count = (n + chunk - 1) / chunk in
  List.init count (fun i -> (i * chunk, min n ((i + 1) * chunk)))

(* State of one in-flight map call: the caller blocks until every chunk
   it submitted has run (on a worker or on itself). *)
type 'e call = {
  c_mutex : Mutex.t;
  c_done : Condition.t;
  mutable remaining : int;
  mutable failed : 'e option;
}

let chunk_done call =
  Mutex.lock call.c_mutex;
  call.remaining <- call.remaining - 1;
  if call.remaining = 0 then Condition.signal call.c_done;
  Mutex.unlock call.c_mutex

let run_task task =
  let enabled = Obs.Runtime.is_enabled () in
  if not enabled then task.run ()
  else begin
    let t0 = Obs.Clock.now_ns () in
    task.run ();
    let dt = Int64.sub (Obs.Clock.now_ns ()) t0 in
    Obs.Metrics.incr ~by:(Int64.to_int dt) m_busy_ns;
    Obs.Metrics.observe h_chunk_ns (Int64.to_float dt)
  end

(* Run [bodies] (one closure per chunk, each writing its own output
   slice) across the pool, helping from the caller's thread. *)
let run_chunks shared bodies =
  let call =
    {
      c_mutex = Mutex.create ();
      c_done = Condition.create ();
      remaining = List.length bodies;
      failed = None;
    }
  in
  let wrap body =
    {
      run =
        (fun () ->
          (try body ()
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             Mutex.lock call.c_mutex;
             if call.failed = None then call.failed <- Some (e, bt);
             Mutex.unlock call.c_mutex);
          chunk_done call);
    }
  in
  let tasks = List.map wrap bodies in
  Mutex.lock shared.mutex;
  List.iter (fun task -> Queue.push task shared.queue) tasks;
  Condition.broadcast shared.work;
  Mutex.unlock shared.mutex;
  (* Caller loop: help with queued chunks (this call's or another
     caller's) until every chunk of this call has completed. *)
  let rec drive () =
    Mutex.lock call.c_mutex;
    let finished = call.remaining = 0 in
    Mutex.unlock call.c_mutex;
    if not finished then begin
      Mutex.lock shared.mutex;
      let task =
        if Queue.is_empty shared.queue then None
        else Some (Queue.pop shared.queue)
      in
      Mutex.unlock shared.mutex;
      match task with
      | Some task ->
          Obs.Metrics.incr m_caller_chunks;
          run_task task;
          drive ()
      | None ->
          (* Nothing to help with: the stragglers are on workers. *)
          Mutex.lock call.c_mutex;
          while call.remaining > 0 do
            Condition.wait call.c_done call.c_mutex
          done;
          Mutex.unlock call.c_mutex
    end
  in
  drive ();
  match call.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* map ---------------------------------------------------------------- *)

(* Chunk-level map: [f] sees each chunk whole, one task per chunk. The
   chunk boundaries are a function of input length and [t.chunk] only,
   so a batch-aware [f] — one that amortizes per-call setup across a
   chunk, like the fixed-width Montgomery arenas behind
   [Commutative.encrypt_batch] — slots in without changing what any
   pool size computes. [f] must be length-preserving and independent
   across chunks. *)
let map_chunks t f xs =
  check_open t;
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    Obs.Metrics.incr m_maps;
    Obs.Metrics.incr ~by:n m_items;
    let bounds = chunk_bounds t.chunk n in
    let nchunks = List.length bounds in
    let out = Array.make nchunks None in
    let bodies =
      List.mapi
        (fun ci (start, stop) ->
          fun () ->
            let chunk =
              Array.to_list (Array.sub arr start (stop - start))
            in
            let ys = f chunk in
            if List.length ys <> stop - start then
              invalid_arg "Pool.map_chunks: f changed the chunk length";
            out.(ci) <- Some ys)
        bounds
    in
    Obs.Metrics.incr ~by:nchunks m_chunks;
    let inline () = List.iter (fun b -> b ()) bodies in
    (match t.shared with
    | None ->
        Obs.Metrics.incr m_seq_fallbacks;
        inline ()
    | Some shared ->
        if on_worker t then begin
          (* Nested map from a pool worker: run inline rather than
             queueing behind every other worker (deadlock risk). *)
          Obs.Metrics.incr m_seq_fallbacks;
          inline ()
        end
        else begin
          let t0 = Obs.Clock.now_ns () in
          run_chunks shared bodies;
          if Obs.Runtime.is_enabled () then
            Obs.Metrics.incr
              ~by:(Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0))
              m_wall_ns
        end);
    List.concat_map
      (function
        | Some ys -> ys
        | None -> invalid_arg "Pool.map_chunks: chunk did not complete")
      (Array.to_list out)
  end

let map t f xs = map_chunks t (List.map f) xs

(* The caller-only counterpart of [map_chunks], for batch kernels run
   without a pool: the same chunk boundaries, so what [f] amortizes per
   chunk is unchanged, while a chunk's intermediates die young instead
   of living as long as the whole list. *)
let map_chunks_seq ?(chunk = default_chunk) f xs =
  let rec split k acc = function
    | x :: tl when k > 0 -> split (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> []
    | xs ->
        let c, rest = split chunk [] xs in
        let ys = f c in
        if List.compare_lengths ys c <> 0 then
          invalid_arg "Pool.map_chunks_seq: f changed the chunk length";
        ys @ go rest
  in
  go xs

(* Shared pools ------------------------------------------------------- *)

(* Process-wide pools keyed by requested size, so `--jobs 4` across a
   bench loop reuses one set of domains. Joined at exit. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()
let cleanup_registered = ref false

let get jobs =
  if jobs < 1 then invalid_arg "Pool.get: jobs must be >= 1";
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry jobs with
      | Some pool when not pool.closed -> pool
      | _ ->
          let pool = create jobs in
          Hashtbl.replace registry jobs pool;
          if not !cleanup_registered then begin
            cleanup_registered := true;
            at_exit (fun () ->
                Mutex.lock registry_mutex;
                let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
                Hashtbl.reset registry;
                Mutex.unlock registry_mutex;
                List.iter shutdown pools)
          end;
          pool)

(* Party domains ------------------------------------------------------ *)

(* One protocol party per fork. A fork claims one of [party_cap] slots
   and runs on a fresh domain, so two in-process parties compute on two
   cores instead of sharing one runtime lock; the cap leaves a core for
   the caller. With no slot free (a one-core host, or a run nested
   inside a party) or when the runtime refuses the spawn, the thunk
   runs on a systhread of the caller's domain: one core for both, the
   same results. The slot is released by [await], so every fork must be
   awaited exactly once. *)

let m_party_domains = Obs.Metrics.counter "pool.party_domains"
let m_party_thread_fallbacks = Obs.Metrics.counter "pool.party_thread_fallbacks"
let party_cap = lazy (Domain.recommended_domain_count () - 1)
let live_parties = Atomic.make 0

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

type 'a forked =
  | On_domain of 'a outcome Domain.t
  | On_thread of Thread.t * 'a outcome option Atomic.t

let rec claim_slot () =
  let live = Atomic.get live_parties in
  live < Lazy.force party_cap
  && (Atomic.compare_and_set live_parties live (live + 1) || claim_slot ())

let fork f =
  let body () = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
  let on_thread () =
    Obs.Metrics.incr m_party_thread_fallbacks;
    let cell = Atomic.make None in
    On_thread (Thread.create (fun () -> Atomic.set cell (Some (body ()))) (), cell)
  in
  if not (claim_slot ()) then on_thread ()
  else
    match Domain.spawn body with
    | d ->
        Obs.Metrics.incr m_party_domains;
        On_domain d
    | exception Failure _ ->
        Atomic.decr live_parties;
        on_thread ()

let await forked =
  let outcome =
    match forked with
    | On_domain d -> Fun.protect ~finally:(fun () -> Atomic.decr live_parties) (fun () -> Domain.join d)
    | On_thread (t, cell) -> (
        Thread.join t;
        match Atomic.get cell with
        | Some outcome -> outcome
        | None -> invalid_arg "Pool.await: the party thread ended without a result")
  in
  match outcome with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt
