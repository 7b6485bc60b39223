module Message = Wire.Message
module Channel = Wire.Channel
module Buf = Wire.Buf
module Snapshot = Wire.Snapshot
module Log = Wire.Record_log
module Drbg = Crypto.Drbg

type op =
  | Intersect of { s_values : string list; r_values : string list }
  | Intersect_size of { s_values : string list; r_values : string list }
  | Equijoin of { s_records : (string * string) list; r_values : string list }
  | Equijoin_size of { s_values : string list; r_values : string list }

type result =
  | Values of string list
  | Size of int
  | Matches of (string * string list) list

let op_name = function
  | Intersect _ -> "intersect"
  | Intersect_size _ -> "intersect_size"
  | Equijoin _ -> "equijoin"
  | Equijoin_size _ -> "equijoin_size"

(* The §6.1 model's name for the op: its run tallies are published as
   [psi.<name>.*], the keys [Obs_report.model_vs_measured] reads. *)
let model_name = function
  | Intersect _ -> "intersection"
  | Intersect_size _ -> "intersection_size"
  | Equijoin _ -> "equijoin"
  | Equijoin_size _ -> "equijoin_size"

type plan = { buckets : int; state_dir : string option }

let max_buckets = 4096

let plan ?state_dir ~buckets () =
  if buckets < 1 || buckets > max_buckets then
    invalid_arg (Printf.sprintf "Shard.plan: buckets must be in 1..%d" max_buckets);
  { buckets; state_dir }

let monolithic = { buckets = 1; state_dir = None }

let with_default_state_dir p dir =
  match p.state_dir with Some _ -> p | None -> { p with state_dir = Some dir }

(* Telemetry: the session op count and each op's psi.<op>.* run tallies
   on every run; the shard namespace only when the plan really
   partitions (k > 1). *)
let m_operations = Obs.Metrics.counter "session.operations"
let m_buckets_run = Obs.Metrics.counter "shard.buckets_run"
let m_replays = Obs.Metrics.counter "shard.replays"
let m_resumes = Obs.Metrics.counter "shard.resumes"
let m_restored = Obs.Metrics.counter "shard.results_restored"
let m_spilled_bytes = Obs.Metrics.counter "shard.spilled_bytes"

(* ------------------------------------------------------------------ *)
(* Bucket assignment                                                   *)
(* ------------------------------------------------------------------ *)

(* First 64 bits of the fixed-width big-endian encoding of h(v),
   reduced mod the bucket count. h is uniform over the group (§3.1
   random-oracle style), so bucket sizes concentrate around n/k; and
   because the assignment depends on h(v) alone, two values with
   colliding hashes share a bucket, keeping the per-bucket §3.2.2
   collision check equivalent to the global one. *)
let bucket_of cfg ~buckets v =
  if buckets = 1 then 0
  else begin
    let h =
      Crypto.Hash_to_group.hash_value cfg.Protocol.group ~domain:cfg.Protocol.domain v
    in
    let s = Crypto.Group.encode_elt cfg.Protocol.group h in
    let n = min 8 (String.length s) in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := ((!acc lsl 8) lor Char.code s.[i]) land max_int
    done;
    !acc mod buckets
  end

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Stateful-reader-safe List.init: elements read in index order. *)
let read_list n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

(* Equijoin sender entries carry the record payload alongside the
   bucketing key. *)
let encode_record (v, r) =
  let w = Buf.writer () in
  Buf.write_bytes w v;
  Buf.write_bytes w r;
  Buf.contents w

let decode_record s =
  let r = Buf.reader s in
  let v = Buf.read_bytes r in
  let payload = Buf.read_bytes r in
  Buf.expect_end r;
  (v, payload)

(* Accumulate [src] into the mutable tally [dst]. The two parties run
   on separate domains, so a tally both of them add to is updated under
   a lock. *)
let add_ops dst (src : Protocol.ops) =
  dst.Protocol.hashes <- dst.Protocol.hashes + src.Protocol.hashes;
  dst.Protocol.encryptions <- dst.Protocol.encryptions + src.Protocol.encryptions;
  dst.Protocol.cipher_ops <- dst.Protocol.cipher_ops + src.Protocol.cipher_ops

(* Route a [(bucket_key, encoded_entry)] stream into buckets via [emit],
   counting bucket sizes and folding the rolling input fingerprint. *)
let partition cfg ~buckets ~emit entries =
  let sizes = Array.make buckets 0 in
  let ctx = Crypto.Sha256.init () in
  Seq.iter
    (fun (key, entry) ->
      let b = bucket_of cfg ~buckets key in
      emit b entry;
      sizes.(b) <- sizes.(b) + 1;
      Crypto.Sha256.update ctx (string_of_int (String.length entry));
      Crypto.Sha256.update ctx entry)
    entries;
  (sizes, hex (Crypto.Sha256.finalize ctx))

(* ------------------------------------------------------------------ *)
(* Spill: per-bucket on-disk partitions                                *)
(* ------------------------------------------------------------------ *)

module Spill = struct
  let kind = "spill"
  let meta_kind = "spill-meta"

  let bucket_file dir ~label b =
    Filename.concat dir (Printf.sprintf "%s.b%d.spill" label b)

  let meta_file dir ~label = Filename.concat dir (label ^ ".spillmeta")

  (* Per-bucket in-memory buffers flushed as one frame once they pass
     this bound: spilling n elements into k buckets holds at most k
     buffers of ~1 MiB and exactly one open file descriptor at a time. *)
  let flush_threshold = 1 lsl 20

  (* Meta kind byte: bit 0 is the entry encoding, bit 1 marks a run's
     own copy of its in-memory inputs — streamed back by that run only,
     never by a later run with an empty input list. *)
  let kind_byte ~kind ~committed =
    (match kind with `Plain -> 0 | `Records -> 1) lor if committed then 0 else 2

  (* [write cfg ~dir ~label ~buckets ~kind ~committed entries] partitions
     a [(bucket_key, encoded_entry)] stream into bucket logs (frames of
     Buf-framed entries), then commits sizes and fingerprint in a
     one-frame meta log written last, so a torn spill is simply not
     visible. Returns (sizes, fingerprint). *)
  let write cfg ~dir ~label ~buckets ~kind:entry_kind ~committed entries =
    let bufs = Array.init buckets (fun _ -> Buf.writer ()) in
    let started = Array.make buckets false in
    let spilled = ref 0 in
    let flush b =
      if Buf.length bufs.(b) > 0 then begin
        let body = Buf.contents bufs.(b) in
        let path = bucket_file dir ~label b in
        if started.(b) then begin
          let a = Log.open_append ~kind path in
          Fun.protect ~finally:(fun () -> Log.close a) (fun () -> Log.append a body)
        end
        else Log.write ~kind path (Seq.return body);
        started.(b) <- true;
        spilled := !spilled + String.length body;
        bufs.(b) <- Buf.writer ()
      end
    in
    let emit b entry =
      Buf.write_bytes bufs.(b) entry;
      if Buf.length bufs.(b) >= flush_threshold then flush b
    in
    let sizes, fp = partition cfg ~buckets ~emit entries in
    for b = 0 to buckets - 1 do
      flush b;
      (* Drop a stale bucket file left by a previous spill under the
         same label whose bucket happens to be empty this time. *)
      if (not started.(b)) && Sys.file_exists (bucket_file dir ~label b) then
        Sys.remove (bucket_file dir ~label b)
    done;
    Obs.Metrics.incr ~by:!spilled m_spilled_bytes;
    let w = Buf.writer () in
    Buf.write_u8 w (kind_byte ~kind:entry_kind ~committed);
    Buf.write_varint w buckets;
    Array.iter (Buf.write_varint w) sizes;
    Buf.write_bytes w fp;
    Log.write ~kind:meta_kind (meta_file dir ~label) (Seq.return (Buf.contents w));
    (sizes, fp)

  let damaged path what = raise (Log.Damaged (Printf.sprintf "spill %s: %s" path what))

  (* The committed spill under [label]: (kind, sizes, fingerprint), or
     [None] for no meta, a run's own copy, or a foreign meta beside no
     spill-log bucket (an older format). Any other meta that is not one
     clean, decodable frame is damage, never the empty set. *)
  let load_committed dir ~label =
    let path = meta_file dir ~label in
    let damaged = damaged path in
    let decode body =
      let r = Buf.reader body in
      let kind =
        match Buf.read_u8 r with
        | 0 -> Some `Plain
        | 1 -> Some `Records
        | 2 | 3 -> None
        | _ -> raise (Buf.Parse_error "meta kind")
      in
      let buckets = Buf.read_varint r in
      if buckets < 1 || buckets > max_buckets then raise (Buf.Parse_error "meta bucket count");
      let sizes = Array.of_list (read_list buckets (fun _ -> Buf.read_varint r)) in
      let fp = Buf.read_bytes r in
      Buf.expect_end r;
      Option.map (fun kind -> (kind, sizes, fp)) kind
    in
    let is_bucket f =
      String.starts_with ~prefix:(label ^ ".b") f
      && Filename.check_suffix f ".spill"
      && Log.is_log ~kind (Filename.concat dir f)
    in
    match Log.fold ~kind:meta_kind path ~init:[] (fun acc f -> f :: acc) with
    | Log.Missing -> None
    | Log.Foreign ->
        if Array.exists is_bucket (Sys.readdir dir) then damaged "not a spill meta log" else None
    | Log.Read { acc = [ Log.Body body ]; clean = true; _ } -> (
        match decode body with m -> m | exception Buf.Parse_error msg -> damaged msg)
    | Log.Read _ -> damaged "not one clean frame"

  (* Load bucket [b], which the meta says holds [size] entries. Read
     policy: only a clean read that decodes to exactly [size] entries is
     the bucket; anything else raises [Record_log.Damaged] rather than
     run on a partial set. A missing file is an empty bucket (only
     non-empty buckets are materialized). *)
  let read_bucket dir ~label ~size b =
    let damaged = damaged (bucket_file dir ~label b) in
    let decode acc = function
      | Log.Corrupt -> acc
      | Log.Body body ->
          let r = Buf.reader body in
          let rec go acc =
            if Buf.at_end r then acc else go (Buf.read_bytes ~max:(String.length body) r :: acc)
          in
          go acc
    in
    match Log.fold ~kind (bucket_file dir ~label b) ~init:[] decode with
    | exception Buf.Parse_error msg -> damaged msg
    | Log.Missing -> if size = 0 then [] else damaged "missing"
    | Log.Foreign -> damaged "not a spill log"
    | Log.Read { clean = false; _ } -> damaged "corrupt frame or torn tail"
    | Log.Read { acc; _ } ->
        let n = List.length acc in
        if n <> size then damaged (Printf.sprintf "%d entries where the meta commits %d" n size);
        List.rev acc
end

(* ------------------------------------------------------------------ *)
(* Own-side bucket source                                              *)
(* ------------------------------------------------------------------ *)

let party_name = function `Sender -> "sender" | `Receiver -> "receiver"
let spill_label ~op_index party = Printf.sprintf "op%d-%s" op_index (party_name party)

let spill_entries cfg p party ~op_index ~kind entries =
  match p.state_dir with
  | None -> invalid_arg "Shard.spill: the plan has no state_dir"
  | Some dir ->
      let sizes, _ =
        Spill.write cfg ~dir ~label:(spill_label ~op_index party) ~buckets:p.buckets ~kind
          ~committed:true entries
      in
      Array.fold_left ( + ) 0 sizes

let spill_values cfg p party ?(op_index = 0) vs =
  spill_entries cfg p party ~op_index ~kind:`Plain (Seq.map (fun v -> (v, v)) vs)

let spill_records cfg p party ?(op_index = 0) rs =
  spill_entries cfg p party ~op_index ~kind:`Records
    (Seq.map (fun (v, r) -> (v, encode_record (v, r))) rs)

(* One party's side of an op: its entry encoding, its entries as
   [(bucket_key, encoded_entry)], and how many there are. *)
let own_entries party op =
  match (party, op) with
  | `Sender, Equijoin { s_records; _ } ->
      ( `Records,
        Seq.map (fun (v, r) -> (v, encode_record (v, r))) (List.to_seq s_records),
        List.length s_records )
  | ( `Sender,
      ( Intersect { s_values = vs; _ }
      | Intersect_size { s_values = vs; _ }
      | Equijoin_size { s_values = vs; _ } ) )
  | ( `Receiver,
      ( Intersect { r_values = vs; _ }
      | Intersect_size { r_values = vs; _ }
      | Equijoin { r_values = vs; _ }
      | Equijoin_size { r_values = vs; _ } ) ) ->
      (`Plain, Seq.map (fun v -> (v, v)) (List.to_seq vs), List.length vs)

(* [op] with this party's side replaced by one bucket's entries. *)
let with_own party op entries =
  match (party, op) with
  | `Sender, Intersect r -> Intersect { r with s_values = entries }
  | `Sender, Intersect_size r -> Intersect_size { r with s_values = entries }
  | `Sender, Equijoin r -> Equijoin { r with s_records = List.map decode_record entries }
  | `Sender, Equijoin_size r -> Equijoin_size { r with s_values = entries }
  | `Receiver, Intersect r -> Intersect { r with r_values = entries }
  | `Receiver, Intersect_size r -> Intersect_size { r with r_values = entries }
  | `Receiver, Equijoin r -> Equijoin { r with r_values = entries }
  | `Receiver, Equijoin_size r -> Equijoin_size { r with r_values = entries }

type source = {
  fetch : int -> op;  (* this party's side of bucket b *)
  sizes : int array;
  input_fp : string Lazy.t;  (* rolling fingerprint of the full input stream *)
}

(* Where one party's buckets come from. A non-empty input list wins: at
   k = 1 it is the bucket as it stands (no partitioning, no
   fingerprint unless a checkpoint asks for one); at k > 1 it is
   partitioned in memory, or re-spilled under the plan's state_dir and
   streamed back with read-ahead. An empty list stands for a spill
   committed by {!spill_values}/{!spill_records}, if there is one — how
   the bench pushes a million elements through without materializing
   them — and otherwise for the empty set. *)
let make_source cfg p party ~op_index op =
  let kind, entries, n = own_entries party op in
  let label = spill_label ~op_index party in
  let stream dir sizes fp =
    let read b = with_own party op (Spill.read_bucket dir ~label ~size:sizes.(b) b) in
    let fetch =
      if p.buckets > 1 then
        Parallel.Pipeline.next (Parallel.Pipeline.create ~fetch:read ~limit:p.buckets ~start:0)
      else read
    in
    { fetch; sizes; input_fp = Lazy.from_val fp }
  in
  let committed =
    match p.state_dir with
    | Some dir when n = 0 -> Option.map (fun m -> (dir, m)) (Spill.load_committed dir ~label)
    | _ -> None
  in
  match (committed, p.state_dir) with
  | Some (dir, (meta_kind, sizes, fp)), _ ->
      if meta_kind <> kind || Array.length sizes <> p.buckets then
        failwith "shard: spilled buckets do not match the plan (bucket count or kind)";
      stream dir sizes fp
  | None, _ when p.buckets = 1 ->
      {
        fetch = (fun _ -> op);
        sizes = [| n |];
        input_fp = lazy (snd (partition cfg ~buckets:1 ~emit:(fun _ _ -> ()) entries));
      }
  | None, None ->
      let parts = Array.make p.buckets [] in
      let sizes, fp =
        partition cfg ~buckets:p.buckets ~emit:(fun b e -> parts.(b) <- e :: parts.(b)) entries
      in
      let fetch b = with_own party op (List.rev parts.(b)) in
      { fetch; sizes; input_fp = Lazy.from_val fp }
  | None, Some dir ->
      let sizes, fp =
        Spill.write cfg ~dir ~label ~buckets:p.buckets ~kind ~committed:false entries
      in
      stream dir sizes fp

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

type checkpoints = {
  table : (string, Snapshot.t) Hashtbl.t;  (* both parties share it *)
  lock : Mutex.t;  (* guards [table], [replays] and [work] *)
  mutable replays : int;
  work : Protocol.ops;
}

let checkpoints () =
  { table = Hashtbl.create 16; lock = Mutex.create (); replays = 0; work = Protocol.new_ops () }

let replays ck = ck.replays

(* Where a party's checkpoints live: today's files under the plan's
   state_dir, or (resilient runs without one) a table that outlives the
   attempts of one run. Plain k > 1 runs without a state_dir keep none. *)
type store = Files of string | Table of checkpoints

let store_of p ck =
  match (p.state_dir, ck) with
  | Some d, _ -> Some (Files d)
  | None, Some c -> Some (Table c)
  | None, None -> None

(* The resume frame is exchanged iff the plan partitions or the run is
   resilient — facts both parties share, unlike their state_dirs. *)
let exchanges p ck = p.buckets > 1 || Option.is_some ck

let load st name =
  match st with
  | Files d -> Snapshot.load ~path:(Filename.concat d name)
  | Table c -> Mutex.protect c.lock (fun () -> Hashtbl.find_opt c.table name)

let save st name s =
  match st with
  | Files d -> Snapshot.save ~path:(Filename.concat d name) s
  | Table c -> Mutex.protect c.lock (fun () -> Hashtbl.replace c.table name s)

let remove st name =
  match st with
  | Files d -> ( try Sys.remove (Filename.concat d name) with Sys_error _ -> ())
  | Table c -> Mutex.protect c.lock (fun () -> Hashtbl.remove c.table name)

let prog_name ~op_index party = Printf.sprintf "op%d-%s.prog" op_index (party_name party)
let epoch_name ~op_index party = Printf.sprintf "op%d-%s.epoch" op_index (party_name party)
let result_name ~op_index b = Printf.sprintf "op%d-b%d.result" op_index b

(* Context fingerprint: which (operation, bucket count, party, input
   stream) a checkpoint belongs to. Purely local — it validates this
   party's own state and never crosses the wire (a deterministic
   commitment to the input set would be leakage the monolithic
   protocol does not have). *)
let ctx_fp ~op ~op_index ~buckets ~party ~input_fp =
  hex
    (Crypto.Sha256.digest_concat
       [
         "psi:shard-ck:v1";
         op;
         string_of_int op_index;
         string_of_int buckets;
         party_name party;
         input_fp;
       ])

(* Checkpoint records: one entry pinning the op and the context
   fingerprint. Progress has run_id = completed bucket count and the
   run tokens (own, peer's); a bucket result has run_id = its bucket. *)
let record ~op ~fp ~run_id s_elements =
  { Snapshot.run_id; entries = [ { Snapshot.op; key_fp = fp; s_elements; r_elements = [] } ] }

let load_record st name ~op ~fp ~valid =
  match load st name with
  | Some { Snapshot.run_id; entries = [ e ] }
    when valid run_id && String.equal e.Snapshot.op op && String.equal e.Snapshot.key_fp fp ->
      Some (run_id, e.Snapshot.s_elements)
  | _ -> None

let encode_result res =
  let w = Buf.writer () in
  (match res with
  | Values vs ->
      Buf.write_u8 w 0;
      Buf.write_varint w (List.length vs);
      List.iter (Buf.write_bytes w) vs
  | Size n ->
      Buf.write_u8 w 1;
      Buf.write_varint w n
  | Matches ms ->
      Buf.write_u8 w 2;
      Buf.write_varint w (List.length ms);
      List.iter
        (fun (v, rs) ->
          Buf.write_bytes w v;
          Buf.write_varint w (List.length rs);
          List.iter (Buf.write_bytes w) rs)
        ms);
  Buf.contents w

let decode_result s =
  let max = String.length s in
  match
    let r = Buf.reader s in
    let bounded n = if n > max then raise (Buf.Parse_error "shard result count") else n in
    let res =
      match Buf.read_u8 r with
      | 0 ->
          let n = bounded (Buf.read_varint r) in
          Values (read_list n (fun _ -> Buf.read_bytes ~max r))
      | 1 -> Size (Buf.read_varint r)
      | 2 ->
          let n = bounded (Buf.read_varint r) in
          Matches
            (read_list n (fun _ ->
                 let v = Buf.read_bytes ~max r in
                 let k = bounded (Buf.read_varint r) in
                 (v, read_list k (fun _ -> Buf.read_bytes ~max r))))
      | _ -> raise (Buf.Parse_error "shard result kind")
    in
    Buf.expect_end r;
    res
  with
  | res -> Some res
  | exception Buf.Parse_error _ -> None

let load_result st ~op_index ~op ~fp b =
  match load_record st (result_name ~op_index b) ~op ~fp ~valid:(Int.equal b) with
  | Some (_, [ s ]) -> decode_result s
  | _ -> None

(* Epochs count a party's fresh starts of one op (run_id); without a
   store every start is epoch 0. *)
let next_epoch st name =
  Option.fold st ~none:0 ~some:(fun st ->
      let e = 1 + Option.fold ~none:0 ~some:(fun s -> s.Snapshot.run_id) (load st name) in
      save st name { Snapshot.run_id = e; entries = [] };
      e)

(* A completed run's crash-recovery state is consumed, never reused as
   a cross-run memo (a later identical run re-executes the protocol;
   the element cache is what makes it cheap). *)
let consume p ck ~op_index ~party =
  if exchanges p ck then
    Option.iter
      (fun st ->
        remove st (prog_name ~op_index party);
        if party = `Receiver then
          for b = 0 to p.buckets - 1 do
            remove st (result_name ~op_index b)
          done)
      (store_of p ck)

(* ------------------------------------------------------------------ *)
(* Resume exchange                                                     *)
(* ------------------------------------------------------------------ *)

(* Run tokens make cross-party staleness detectable without leaking a
   commitment to anyone's data: a token is minted fresh every time a
   party starts an op from scratch (epoch counter + DRBG fork + local
   fingerprint, hashed), and only reused while resuming that same
   attempt. If my stored peer token no longer matches what the peer
   announces, the peer restarted (possibly with different inputs), so
   my per-bucket results are stale and I start from bucket 0. *)
let mint_token drbg ~op_index ~fp ~epoch =
  let bytes =
    Drbg.generate (Drbg.fork drbg ~label:(Printf.sprintf "shard/op%d/token" op_index)) 16
  in
  hex
    (String.sub
       (Crypto.Sha256.digest_concat
          [ "psi:shard-token:v1"; bytes; fp; string_of_int epoch ])
       0 16)

type hello = { done_ : int; token : string; peer_token : string }

let resume_tag = "shard/resume"

let send_hello cfg ep h =
  Channel.send ep
    (Message.make ~tag:(Protocol.scoped cfg resume_tag)
       (Message.Elements [ string_of_int h.done_; h.token; h.peer_token ]))

let recv_hello cfg ep =
  match Protocol.recv_tagged ep (Protocol.scoped cfg resume_tag) with
  | Message.Elements [ d; token; peer_token ] -> (
      match int_of_string_opt d with
      | Some n when n >= 0 && n <= max_buckets -> { done_ = n; token; peer_token }
      | _ -> Wire.Errors.protocol_errorf "shard resume failed: malformed bucket count")
  | _ -> Wire.Errors.protocol_errorf "shard resume failed: unexpected message"

(* Where this party's run of one op starts: its own valid progress,
   the receiver's restored bucket results, and the frame exchange
   (receiver first, mirroring the handshake direction) that reveals
   only bucket-completion counts and opaque run tokens. Returns
   (start, own completed count, own token, peer's token). *)
let negotiate cfg p ~st ~drbg ~op_index ~party ~name ~fp ~restored ep =
  let progress =
    Option.bind st (fun st ->
        load_record st (prog_name ~op_index party) ~op:name ~fp ~valid:(fun n ->
            n >= 0 && n <= p.buckets))
  in
  let raw_done, own_token, stored_peer =
    match progress with
    | Some (d, [ tok; ptok ]) -> (d, Some tok, ptok)
    | _ -> (0, None, "")
  in
  (* The receiver only trusts progress it can back with decodable
     result checkpoints: announce the longest valid prefix. *)
  let raw_done =
    match (party, st) with
    | `Receiver, Some st ->
        let rec go b =
          if b >= raw_done then b
          else
            match load_result st ~op_index ~op:name ~fp b with
            | Some res ->
                Hashtbl.replace restored b res;
                go (b + 1)
            | None -> b
        in
        go 0
    | `Receiver, None -> 0
    | `Sender, _ -> raw_done
  in
  let token =
    match own_token with
    | Some t when raw_done > 0 -> t
    | _ -> mint_token drbg ~op_index ~fp ~epoch:(next_epoch st (epoch_name ~op_index party))
  in
  let mine = { done_ = raw_done; token; peer_token = stored_peer } in
  let theirs =
    match party with
    | `Receiver ->
        send_hello cfg ep mine;
        recv_hello cfg ep
    | `Sender ->
        let t = recv_hello cfg ep in
        send_hello cfg ep mine;
        t
  in
  (* My checkpoints are valid only if the peer is still the run I made
     them against; the peer's count only counts if it was made against
     my current run. Both sides compute both, symmetrically. *)
  let mine_eff = if String.equal theirs.token stored_peer then raw_done else 0 in
  let theirs_eff = if String.equal theirs.peer_token token then theirs.done_ else 0 in
  (min mine_eff theirs_eff, mine_eff, token, theirs.token)

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)
(* ------------------------------------------------------------------ *)

type stats = { buckets : int; sizes : int list; start : int; peer : int }

(* The one dispatch: this party's side of [op] onto its protocol module.
   Returns the tallies, the receiver's output, and the peer's set size
   as this party's transcript reveals it. *)
let dispatch cfg ~rng ep party op =
  match (party, op) with
  | `Sender, Intersect { s_values; _ } ->
      let r = Intersection.sender cfg ~rng ~values:s_values ep in
      (r.Intersection.ops, None, r.Intersection.v_r_count)
  | `Sender, Intersect_size { s_values; _ } ->
      let r = Intersection_size.sender cfg ~rng ~values:s_values ep in
      (r.Intersection_size.ops, None, r.Intersection_size.v_r_count)
  | `Sender, Equijoin { s_records; _ } ->
      let r = Equijoin.sender cfg ~rng ~records:s_records ep in
      (r.Equijoin.ops, None, r.Equijoin.v_r_count)
  | `Sender, Equijoin_size { s_values; _ } ->
      let r = Equijoin_size.sender cfg ~rng ~values:s_values ep in
      (r.Equijoin_size.ops, None, r.Equijoin_size.v_r_multiset_size)
  | `Receiver, Intersect { r_values; _ } ->
      let r = Intersection.receiver cfg ~rng ~values:r_values ep in
      ( r.Intersection.ops,
        Some (Values r.Intersection.intersection),
        r.Intersection.v_s_count )
  | `Receiver, Intersect_size { r_values; _ } ->
      let r = Intersection_size.receiver cfg ~rng ~values:r_values ep in
      ( r.Intersection_size.ops,
        Some (Size r.Intersection_size.size),
        r.Intersection_size.v_s_count )
  | `Receiver, Equijoin { r_values; _ } ->
      let r = Equijoin.receiver cfg ~rng ~values:r_values ep in
      (r.Equijoin.ops, Some (Matches r.Equijoin.matches), r.Equijoin.v_s_count)
  | `Receiver, Equijoin_size { r_values; _ } ->
      let r = Equijoin_size.receiver cfg ~rng ~values:r_values ep in
      ( r.Equijoin_size.ops,
        Some (Size r.Equijoin_size.join_size),
        r.Equijoin_size.v_s_multiset_size )

let merge op results =
  let shape_error () = failwith "shard: per-bucket result shape mismatch" in
  let all =
    List.map (function Some r -> r | None -> failwith "shard: missing bucket result")
      (Array.to_list results)
  in
  match (all, op) with
  | [ r ], _ -> r
  | _, Intersect _ ->
      Values
        (List.concat_map (function Values vs -> vs | _ -> shape_error ()) all
        |> List.sort String.compare)
  | _, (Intersect_size _ | Equijoin_size _) ->
      Size (List.fold_left (fun n -> function Size s -> n + s | _ -> shape_error ()) 0 all)
  | _, Equijoin _ ->
      Matches
        (List.concat_map (function Matches ms -> ms | _ -> shape_error ()) all
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* Payload bytes this endpoint has moved in both directions. *)
let traffic ep =
  let s = Channel.stats ep in
  s.Channel.bytes_sent + s.Channel.bytes_received

(* One party's run of one op: the bucket loop every entry point goes
   through. k = 1 without [ck] is the monolithic run — scope [""], no
   resume frame, keys straight from the party's stream (so consecutive
   ops continue it). k > 1 runs bucket b under scope ["b<b>"] with keys
   forked per bucket, after the resume exchange. Each party publishes
   its own share of the op's run tallies ({!Protocol.record_run}); the
   receiver's wire bytes are the op's traffic on its endpoint, resume
   frame included, handshake excluded. *)
let drive cfg (p : plan) ?ck ~drbg ~op_index ~party ep op =
  let name = op_name op in
  let sharded = p.buckets > 1 in
  let wire_before = traffic ep in
  if party = `Receiver then Obs.Metrics.incr m_operations;
  Obs.Span.with_ ("session/" ^ name) @@ fun () ->
  let in_span label attrs f = if sharded then Obs.Span.with_ label ~attrs f else f () in
  in_span ("shard/" ^ name) [ ("buckets", string_of_int p.buckets) ] @@ fun () ->
  if sharded then
    Obs.Metrics.set (Obs.Metrics.gauge "shard.buckets") (float_of_int p.buckets);
  let st = if exchanges p ck then store_of p ck else None in
  let src = make_source cfg p party ~op_index op in
  let fp =
    lazy
      (ctx_fp ~op:name ~op_index ~buckets:p.buckets ~party
         ~input_fp:(Lazy.force src.input_fp))
  in
  let restored = Hashtbl.create 8 in
  let start, mine_eff, token, peer_token =
    if exchanges p ck then
      negotiate cfg p ~st ~drbg ~op_index ~party ~name ~fp:(Lazy.force fp) ~restored ep
    else (0, 0, "", "")
  in
  if sharded && start > 0 then Obs.Metrics.incr m_resumes;
  let acc = Protocol.new_ops () in
  let results =
    Array.init p.buckets (fun b -> if b < mine_eff then Hashtbl.find_opt restored b else None)
  in
  if sharded && party = `Receiver && mine_eff > 0 then Obs.Metrics.incr ~by:mine_eff m_restored;
  let peer = ref 0 in
  for b = start to p.buckets - 1 do
    let bucket = src.fetch b in
    let is_replay = b < mine_eff in
    if is_replay then begin
      if sharded then Obs.Metrics.incr m_replays;
      Option.iter (fun c -> Mutex.protect c.lock (fun () -> c.replays <- c.replays + 1)) ck
    end;
    let o, res, n =
      if sharded then
        let _, _, n = own_entries party bucket in
        Obs.Span.with_ (Printf.sprintf "shard/b%d" b) ~attrs:[ ("n", string_of_int n) ]
        @@ fun () ->
        let bcfg = Protocol.with_scope cfg (Protocol.scoped cfg (Printf.sprintf "b%d" b)) in
        let rng =
          Drbg.to_rng (Drbg.fork drbg ~label:(Printf.sprintf "shard/op%d/b%d" op_index b))
        in
        dispatch bcfg ~rng ep party bucket
      else dispatch cfg ~rng:(Drbg.to_rng drbg) ep party bucket
    in
    add_ops acc o;
    peer := !peer + n;
    if sharded then Obs.Metrics.incr m_buckets_run;
    (* Idempotent replay: the first completed result wins. *)
    if not is_replay then results.(b) <- res;
    Option.iter
      (fun st ->
        let fp = Lazy.force fp in
        (match res with
        | Some r when not is_replay ->
            save st (result_name ~op_index b) (record ~op:name ~fp ~run_id:b [ encode_result r ])
        | _ -> ());
        save st (prog_name ~op_index party)
          (record ~op:name ~fp ~run_id:(max mine_eff (b + 1)) [ token; peer_token ]))
      st
  done;
  Protocol.record_run ~op:(model_name op) ~ops:acc
    (match party with
    | `Receiver -> `Receiver (!peer, traffic ep - wire_before)
    | `Sender -> `Sender !peer);
  let stats = { buckets = p.buckets; sizes = Array.to_list src.sizes; start; peer = !peer } in
  let result = match party with `Sender -> None | `Receiver -> Some (merge op results) in
  (acc, result, stats)

let sender_op cfg p ~drbg ?(op_index = 0) ep op =
  let ops, _, stats = drive cfg p ~drbg ~op_index ~party:`Sender ep op in
  consume p None ~op_index ~party:`Sender;
  (ops, stats)

let expect_result = function
  | Some r -> r
  | None -> failwith "shard: operation completed without a result"

let receiver_op cfg p ~drbg ?(op_index = 0) ep op =
  let ops, result, stats = drive cfg p ~drbg ~op_index ~party:`Receiver ep op in
  consume p None ~op_index ~party:`Receiver;
  (ops, expect_result result, stats)

(* The in-process runner behind Session.run, run_resilient and {!run}:
   both parties' streams from [drbg], the config handshake, every op in
   order through {!drive}, and checkpoints consumed once both parties
   have returned. With [ck], tallies accumulate into [ck.work]; both
   parties add to the tally, each from its own domain, under [lock]. *)
let execute cfg p ?ck ?endpoints ?attempt drbg ops =
  let tally, lock =
    match ck with Some c -> (c.work, c.lock) | None -> (Protocol.new_ops (), Mutex.create ())
  in
  let play party handshake pick d ep =
    handshake cfg ep;
    List.mapi
      (fun op_index op ->
        let o, res, stats = drive cfg p ?ck ~drbg:d ~op_index ~party ep op in
        Mutex.protect lock (fun () -> add_ops tally o);
        pick res stats)
      ops
  in
  let o =
    Protocol.launch ?endpoints ?attempt drbg
      ~sender:(play `Sender Handshake.respond (fun _ stats -> stats))
      ~receiver:
        (play `Receiver Handshake.initiate (fun res stats -> (expect_result res, stats)))
  in
  List.iteri
    (fun op_index _ ->
      consume p ck ~op_index ~party:`Sender;
      consume p ck ~op_index ~party:`Receiver)
    ops;
  (o, tally)

type report = {
  result : result;
  total_bytes : int;
  ops : Protocol.ops;
  sender_stats : stats;
  receiver_stats : stats;
}

let run cfg ?(seed = "shard") ?(record_views = true) p op =
  let s_ep, r_ep = Channel.create () in
  Channel.set_record_views s_ep record_views;
  Channel.set_record_views r_ep record_views;
  let o, ops = execute cfg p ~endpoints:(s_ep, r_ep) (Drbg.create ~seed) [ op ] in
  match (o.Wire.Runner.sender_result, o.Wire.Runner.receiver_result) with
  | [ sender_stats ], [ (result, receiver_stats) ] ->
      { result; total_bytes = o.Wire.Runner.total_bytes; ops; sender_stats; receiver_stats }
  | _ -> failwith "shard: one operation, one result"
