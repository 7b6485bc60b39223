(* The operation vocabulary is the executor's: every session runs its
   operations through Shard's bucket loop (the monolithic run is the
   1-bucket plan). *)
type op = Shard.op =
  | Intersect of { s_values : string list; r_values : string list }
  | Intersect_size of { s_values : string list; r_values : string list }
  | Equijoin of { s_records : (string * string) list; r_values : string list }
  | Equijoin_size of { s_values : string list; r_values : string list }

type result = Shard.result =
  | Values of string list
  | Size of int
  | Matches of (string * string list) list

type report = {
  results : result list;
  peer_sizes : (int * int) list;
  total_bytes : int;
  ops : Protocol.ops;
}

let op_name = Shard.op_name
let m_retries = Obs.Metrics.counter "session.retries"
let m_reconnects = Obs.Metrics.counter "session.reconnects"
let m_replays = Obs.Metrics.counter "session.replays"

(* A finished run's report, published to the session rollup counters:
   per op, the receiver's result and both parties' view of the peer's
   set size. *)
let report_of ~total_bytes ~ops (o : (_, _) Wire.Runner.outcome) =
  Obs.Metrics.incr ~by:ops.Protocol.encryptions (Obs.Metrics.counter "session.encryptions");
  Obs.Metrics.incr ~by:total_bytes (Obs.Metrics.counter "session.wire_bytes");
  {
    results = List.map fst o.receiver_result;
    peer_sizes =
      List.map2
        (fun (_, (r : Shard.stats)) (s : Shard.stats) -> (r.peer, s.peer))
        o.receiver_result o.sender_result;
    total_bytes;
    ops;
  }

let run cfg ?(seed = "session") ?(shard = Shard.monolithic) operations () =
  let o, ops = Shard.execute cfg shard (Crypto.Drbg.create ~seed) operations in
  report_of ~total_bytes:o.Wire.Runner.total_bytes ~ops o

(* ------------------------------------------------------------------ *)
(* Incremental sessions: persistent cache + snapshot diffing           *)
(* ------------------------------------------------------------------ *)

type incremental_stats = {
  cold : bool;
  added : int;
  removed : int;
  unchanged : int;
  hits : int;
  misses : int;
  run_id : int;
}

type incremental_report = { report : report; incremental : incremental_stats }

let snapshot_file dir = Filename.concat dir "session.snap"

(* The per-op element sets the incremental layer diffs: exactly what
   the protocols hash and encrypt (deduplicated join-attribute values;
   for the equijoin, the sender's distinct keys). *)
let op_elements = function
  | Intersect { s_values; r_values }
  | Intersect_size { s_values; r_values }
  | Equijoin_size { s_values; r_values } ->
      (Protocol.dedup s_values, Protocol.dedup r_values)
  | Equijoin { s_records; r_values } ->
      (Protocol.dedup (List.map fst s_records), Protocol.dedup r_values)

(* [op] with its sides replaced by the sets [op_elements] made of them,
   so the parties' own dedup finds them sorted and passes them through.
   The equijoin sender keeps its records and the equijoin-size sides
   stay multisets: their duplicates count. *)
let with_elements op (s, r) =
  match op with
  | Intersect _ -> Intersect { s_values = s; r_values = r }
  | Intersect_size _ -> Intersect_size { s_values = s; r_values = r }
  | Equijoin e -> Equijoin { e with r_values = r }
  | Equijoin_size _ -> op

(* Merge-walk two sorted unique lists, tallying (added, removed,
   unchanged) relative to [prev]. *)
let diff_counts prev cur =
  let rec go added removed unchanged prev cur =
    match (prev, cur) with
    | [], [] -> (added, removed, unchanged)
    | [], _ :: cs -> go (added + 1) removed unchanged [] cs
    | _ :: ps, [] -> go added (removed + 1) unchanged ps []
    | p :: ps, c :: cs ->
        let cmp = String.compare p c in
        if cmp = 0 then go added removed (unchanged + 1) ps cs
        else if cmp < 0 then go added (removed + 1) unchanged ps cur
        else go (added + 1) removed unchanged prev cs
  in
  go 0 0 0 prev cur

(* A previous snapshot is usable only for the same operation sequence
   under the same key material; anything else is a cold run (the cache
   still deduplicates whatever happens to match). *)
let snapshot_compatible ~key_fp prev cur_ops =
  List.length prev.Wire.Snapshot.entries = List.length cur_ops
  && List.for_all2
       (fun e op ->
         String.equal e.Wire.Snapshot.op (op_name op)
         && String.equal e.Wire.Snapshot.key_fp key_fp)
       prev.Wire.Snapshot.entries cur_ops

let run_incremental cfg ?(seed = "session") ?(keys = `Cached) ?max_entries ?shard
    ~cache_dir operations () =
  (* A sharded incremental session roots its per-bucket state (spills,
     checkpoints) next to the session cache unless the plan already
     chose a home. *)
  let shard =
    Option.map
      (fun p -> Shard.with_default_state_dir p (Filename.concat cache_dir "shard"))
      shard
  in
  let cache = Ecache.open_ ?max_entries ~dir:cache_dir () in
  Fun.protect ~finally:(fun () -> Obs.Span.with_ "incremental/close" (fun () -> Ecache.close cache))
  @@ fun () ->
  let path = snapshot_file cache_dir in
  let prev = Obs.Span.with_ "incremental/load" (fun () -> Wire.Snapshot.load ~path) in
  let run_id = match prev with None -> 1 | Some p -> p.Wire.Snapshot.run_id + 1 in
  (* Key policy: the whole session's key material derives from the Drbg
     seed, and key derivation consumes the rng independently of the data
     — so replaying the same seed reproduces the same keys (`Cached,
     cache hits possible but runs linkable through reused keys), while
     folding the run counter into the seed yields fresh keys whose
     fingerprints miss every cached ciphertext by construction
     (`Fresh). *)
  let effective_seed =
    match keys with `Cached -> seed | `Fresh -> Printf.sprintf "%s/run-%d" seed run_id
  in
  let key_fp =
    String.sub
      (Crypto.Sha256.hexdigest ("psi:session-keys:v1\x00" ^ effective_seed))
      0 32
  in
  let cold =
    match prev with
    | Some p when snapshot_compatible ~key_fp p operations -> false
    | Some _ | None -> true
  in
  let elements, (added, removed, unchanged) =
    Obs.Span.with_ "incremental/diff" @@ fun () ->
    let elements = List.map op_elements operations in
    ( elements,
      if cold then
        ( List.fold_left (fun n (s, r) -> n + List.length s + List.length r) 0 elements,
          0,
          0 )
      else
        let p = Option.get prev in
        List.fold_left2
          (fun (a, d, u) e (s, r) ->
            let a1, d1, u1 = diff_counts e.Wire.Snapshot.s_elements s in
            let a2, d2, u2 = diff_counts e.Wire.Snapshot.r_elements r in
            (a + a1 + a2, d + d1 + d2, u + u1 + u2))
          (0, 0, 0) p.Wire.Snapshot.entries elements )
  in
  let before = Ecache.stats cache in
  let report =
    run { cfg with Protocol.ecache = Some cache } ~seed:effective_seed ?shard
      (List.map2 with_elements operations elements)
      ()
  in
  let after = Ecache.stats cache in
  (* Leakage ledger: cumulative exposure per key fingerprint. Each run
     reveals its newly-processed elements ([added] — everything on a
     cold run) under [key_fp]; with `Cached keys the same fingerprint
     accrues across runs (runs stay linkable through reused keys),
     while `Fresh lands every run on a new fingerprint. psi_trace
     renders these counters as the per-key ledger. *)
  let fp12 = String.sub key_fp 0 12 in
  Obs.Metrics.incr (Obs.Metrics.counter ("leakage.key." ^ fp12 ^ ".runs"));
  Obs.Metrics.incr ~by:added
    (Obs.Metrics.counter ("leakage.key." ^ fp12 ^ ".elements"));
  Obs.Metrics.incr
    (Obs.Metrics.counter
       (match keys with
       | `Cached -> "leakage.cached_key_runs"
       | `Fresh -> "leakage.fresh_key_runs"));
  Obs.Span.with_ "incremental/save" (fun () ->
      Wire.Snapshot.save ~path
        {
          Wire.Snapshot.run_id;
          entries =
            List.map2
              (fun op (s, r) ->
                { Wire.Snapshot.op = op_name op; key_fp; s_elements = s; r_elements = r })
              operations elements;
        });
  {
    report;
    incremental =
      {
        cold;
        added;
        removed;
        unchanged;
        hits = after.Ecache.hits - before.Ecache.hits;
        misses = after.Ecache.misses - before.Ecache.misses;
        run_id;
      };
  }

(* ------------------------------------------------------------------ *)
(* Resilient sessions: checkpoint, reconnect, resume                   *)
(* ------------------------------------------------------------------ *)

type resilience = {
  max_attempts : int;
  backoff_s : float;
  max_backoff_s : float;
  recv_timeout_s : float option;
}

let default_resilience =
  { max_attempts = 5; backoff_s = 0.1; max_backoff_s = 2.0; recv_timeout_s = Some 5.0 }

type resilient_report = {
  report : report;
  attempts : int;
  replays : int;
  receiver_views : Wire.Message.t list list;
}

let run_resilient ?(resilience = default_resilience) cfg ?(seed = "session")
    ?(shard = Shard.monolithic) ~connect operations =
  let drbg = Crypto.Drbg.create ~seed in
  (* Checkpoints outlive the attempts: each attempt's resume exchange
     skips the op × bucket units both parties finished, replays the ones
     only one of them did, and the receiver keeps the first completed
     result. *)
  let ck = Shard.checkpoints () in
  let total_bytes = ref 0 in
  let views = ref [] in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    let a = !attempts in
    let s_ep, r_ep = connect ~attempt:a in
    Wire.Channel.set_timeout s_ep resilience.recv_timeout_s;
    Wire.Channel.set_timeout r_ep resilience.recv_timeout_s;
    let finish () =
      total_bytes :=
        !total_bytes
        + (Wire.Channel.stats s_ep).Wire.Channel.bytes_sent
        + (Wire.Channel.stats r_ep).Wire.Channel.bytes_sent;
      views := Wire.Channel.received r_ep :: !views;
      Wire.Channel.close s_ep;
      Wire.Channel.close r_ep
    in
    (* Fresh per-attempt streams: a replayed operation must not reuse
       the encryption keys the interrupted attempt already derived. *)
    match Shard.execute cfg shard ~ck ~endpoints:(s_ep, r_ep) ~attempt:a drbg operations with
    | outcome ->
        finish ();
        outcome
    | exception e when Wire.Errors.transient e ->
        finish ();
        Obs.Metrics.incr m_retries;
        (* Flight-recorder trail: every retry/reconnect leaves a note;
           exhausting the budget trips the ring so the sink preserves
           the whole window around the failure. *)
        if Obs.Ring.active () then
          Obs.Ring.note
            (Printf.sprintf "session: attempt %d/%d failed: %s" a
               resilience.max_attempts (Printexc.to_string e));
        if !attempts >= resilience.max_attempts then begin
          Obs.Ring.trip "session: retry budget exhausted";
          raise e
        end;
        let backoff =
          Float.min resilience.max_backoff_s
            (resilience.backoff_s *. (2. ** float_of_int (a - 1)))
        in
        if backoff > 0. then Thread.delay backoff;
        Obs.Metrics.incr m_reconnects;
        if Obs.Ring.active () then
          Obs.Ring.note (Printf.sprintf "session: reconnecting (attempt %d)" (a + 1));
        attempt ()
  in
  let o, ops = attempt () in
  Obs.Metrics.incr ~by:(Shard.replays ck) m_replays;
  {
    report = report_of ~total_bytes:!total_bytes ~ops o;
    attempts = !attempts;
    replays = Shard.replays ck;
    receiver_views = List.rev !views;
  }
