module Group = Crypto.Group
module Commutative = Crypto.Commutative
module Hash_to_group = Crypto.Hash_to_group

type config = {
  group : Group.t;
  domain : string;
  cipher : Crypto.Perfect_cipher.scheme;
  workers : int;
  ecache : Ecache.t option;
  scope : string;
}

let config ?(domain = "default") ?(cipher = Crypto.Perfect_cipher.Stream_cipher)
    ?(workers = 1) ?ecache ?(scope = "") group =
  if workers < 1 then invalid_arg "Protocol.config: workers >= 1"
  else { group; domain; cipher; workers; ecache; scope }

let with_scope cfg scope = { cfg with scope }

(* The empty scope concatenates to the bare tag, so every pre-sharding
   transcript stays byte-identical. *)
let scoped cfg tag = if cfg.scope = "" then tag else cfg.scope ^ "/" ^ tag

(* [pool cfg] is the shared domain pool for [cfg.workers] — [None] for
   the sequential default, which keeps single-worker runs on the exact
   pre-pool code path. *)
let pool_of cfg = if cfg.workers <= 1 then None else Some (Parallel.Pool.get cfg.workers)

type ops = { mutable hashes : int; mutable encryptions : int; mutable cipher_ops : int }

let new_ops () = { hashes = 0; encryptions = 0; cipher_ops = 0 }

let total a b =
  {
    hashes = a.hashes + b.hashes;
    encryptions = a.encryptions + b.encryptions;
    cipher_ops = a.cipher_ops + b.cipher_ops;
  }

(* Per-op telemetry rollup, written by the executor from each party's
   own tallies: gauges [psi.<op>.v_s]/[.v_r] (set sizes of the latest
   run) and counters [psi.<op>.{runs,encryptions,hashes,cipher_ops,
   wire_bytes}]. [Obs_report.model_vs_measured] reads these back from
   a snapshot. *)
let record_run ~op ~(ops : ops) share =
  if Obs.Runtime.is_enabled () then begin
    let c name = Obs.Metrics.counter (Printf.sprintf "psi.%s.%s" op name) in
    let g name = Obs.Metrics.gauge (Printf.sprintf "psi.%s.%s" op name) in
    (match share with
    | `Receiver (v_s, wire_bytes) ->
        Obs.Metrics.set (g "v_s") (float_of_int v_s);
        Obs.Metrics.incr (c "runs");
        Obs.Metrics.incr ~by:wire_bytes (c "wire_bytes")
    | `Sender v_r -> Obs.Metrics.set (g "v_r") (float_of_int v_r));
    Obs.Metrics.incr ~by:ops.encryptions (c "encryptions");
    Obs.Metrics.incr ~by:ops.hashes (c "hashes");
    Obs.Metrics.incr ~by:ops.cipher_ops (c "cipher_ops")
  end

(* Both parties' streams come from one seeded generator, split sender
   first; a retry's labels carry its attempt number so a replay never
   reuses the keys an interrupted attempt derived. *)
let launch ?endpoints ?attempt drbg ~sender ~receiver =
  let label party =
    match attempt with None -> party | Some a -> Printf.sprintf "%s#%d" party a
  in
  let s_drbg = Crypto.Drbg.split drbg ~label:(label "sender") in
  let r_drbg = Crypto.Drbg.split drbg ~label:(label "receiver") in
  let endpoints = match endpoints with Some eps -> eps | None -> Wire.Channel.create () in
  Wire.Runner.run_on endpoints ~sender:(sender s_drbg) ~receiver:(receiver r_drbg)

let rec strictly_increasing = function
  | a :: (b :: _ as tl) -> String.compare a b < 0 && strictly_increasing tl
  | [] | [ _ ] -> true

(* A list that is already a set (an incremental session hands over the
   lists it deduplicated for its snapshot diff) costs one linear pass. *)
let dedup values =
  if strictly_increasing values then values else List.sort_uniq String.compare values

(* §3.2.2: "a collision within V_S or V_R can be detected by the server
   at the start of each protocol by sorting the hashes". With a 64-bit
   test group and millions of values this could actually fire; failing
   loudly beats silently corrupting the result. The list is sorted by
   its keys already, so two equal keys are neighbours. *)
let rec check_adjacent = function
  | (a, _) :: ((b, _) :: _ as tl) ->
      if String.equal a b then
        failwith
          "protocol error: hash collision within this party's value set (use a larger group)"
      else check_adjacent tl
  | [] | [ _ ] -> ()

let reorder pairs =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs in
  check_adjacent sorted;
  sorted

(* A membership test over encodings derived from the peer's list. Each
   table draws its own hash seed, so a peer that grinds its elements
   into one bucket cannot make the match quadratic; only membership is
   asked, so the seed never reaches a result. *)
let member_of zs =
  let table = Hashtbl.create ~random:true (List.length zs) in
  List.iter (fun z -> Hashtbl.replace table z ()) zs;
  Hashtbl.mem table

let encode cfg x = Group.encode_elt cfg.group x

(* A party's own encodings (its hashes, its ciphertexts) are in QR_p by
   construction: decoding one can only fail on a local bug. *)
let decode cfg s =
  match Group.decode_elt cfg.group s with
  | Ok x -> x
  | Error e -> invalid_arg ("Protocol.decode: " ^ e)

(* An element the peer sent: the commutative cipher is defined on QR_p
   only (§3, Example 1), so anything else — wrong width, out of range,
   a non-residue such as p-1 — is the peer's violation. *)
let decode_peer cfg s =
  match Group.decode_elt cfg.group s with
  | Ok x when Group.is_element cfg.group x -> x
  | Ok _ -> Wire.Errors.peer_violationf "element outside QR_p"
  | Error e -> Wire.Errors.peer_violationf "%s" e

(* The peer's Paillier key and ciphertexts ([Aggregate], [Pir]): bytes
   that do not decode are its violation, as a non-element is. *)
let peer_paillier = function Ok x -> x | Error e -> Wire.Errors.peer_violationf "%s" e
let peer_public s = peer_paillier (Crypto.Paillier.decode_public s)
let peer_ciphertext pub s = peer_paillier (Crypto.Paillier.decode_ciphertext pub s)

(* Per-element crypto work, on encodings, through the session's cache:
   plain [compute ss] without one. With one, [ss] are inputs of the
   cache's [(ns, key_fp)] slice and [compute] sees only the misses, so
   the ops tallies it keeps count the work actually done — the quantity
   the amortized Ce·|Δ| model is checked against. Every step below
   takes this one path, cache or not. *)
let through cfg ~ns ~key_fp compute ss =
  match cfg.ecache with
  | None -> compute ss
  | Some cache -> Ecache.batch cache ~ns ~key_fp ~compute ss

(* The three steps the cache holds, counted. Hashing is keyed by
   nothing (key_fp = "") and namespaced per hash domain, so two
   attributes never alias and both parties share the slice: h(v) is
   the same function on either side. Encryption and decryption are
   keyed by the key fingerprint, so a `Fresh exponent misses everything
   and a cached ciphertext is only ever served under the key that made
   it. *)
let hash_encoded cfg ops vs =
  through cfg ~ns:("h2g:" ^ cfg.domain) ~key_fp:""
    (fun vs ->
      ops.hashes <- ops.hashes + List.length vs;
      List.map (encode cfg)
        (Hash_to_group.hash_batch ?pool:(pool_of cfg) cfg.group ~domain:cfg.domain vs))
    vs

let encrypt_encoded ~decode cfg ops key ss =
  through cfg ~ns:"enc" ~key_fp:(Commutative.fingerprint key)
    (fun ss ->
      ops.encryptions <- ops.encryptions + List.length ss;
      List.map (encode cfg)
        (Commutative.encrypt_batch ?pool:(pool_of cfg) cfg.group key (List.map (decode cfg) ss)))
    ss

(* Decryption only ever peels our layer off what the peer sent back. *)
let decrypt_encoded cfg ops key ss =
  through cfg ~ns:"dec" ~key_fp:(Commutative.fingerprint key)
    (fun ss ->
      ops.encryptions <- ops.encryptions + List.length ss;
      List.map (encode cfg)
        (Commutative.decrypt_batch ?pool:(pool_of cfg) cfg.group key
           (List.map (decode_peer cfg) ss)))
    ss

(* The element-valued entry points, over the encoded steps. *)
let hash_values cfg ops vs =
  let hs = hash_encoded cfg ops vs in
  ignore (reorder (List.combine hs vs));
  List.combine vs (List.map (decode cfg) hs)

let encrypt_batch cfg ops key xs =
  List.map (decode cfg) (encrypt_encoded ~decode cfg ops key (List.map (encode cfg) xs))

(* Run [f] over [xs] a slice at a time, in order, on the calling
   thread: what [f] allocates for one slice (hashes, decoded elements,
   ciphertexts) dies with it, and only its results live as long as the
   whole list. A slice holds one pool chunk per worker, so the batches
   [f] runs across the pool still occupy every domain, while the cache
   lookups and stores, and the counts, stay on this thread. *)
let in_slices cfg f xs =
  let workers = match pool_of cfg with None -> 1 | Some pool -> Parallel.Pool.size pool in
  Parallel.Pool.map_chunks_seq ~chunk:(workers * Parallel.Pool.default_chunk) f xs

let encrypt_encoded_batch cfg ops key ss =
  in_slices cfg (encrypt_encoded ~decode:decode_peer cfg ops key) ss

let decrypt_encoded_batch cfg ops key ss = in_slices cfg (decrypt_encoded cfg ops key) ss
let sort_encoded ss = List.sort String.compare ss

(* The opening every two-party protocol shares, steps 1-2 on a party's
   own (distinct) values: f_key(h(v)), encoded, a slice at a time (the
   hash slice's encodings feed the encryption slice as they are), then
   reordered lexicographically (§3.3 footnote 3: the order must not
   reveal which value is which). Each encoding keeps its value beside
   it for the party's own matching step. The collision check runs on
   the reordered encodings rather than the hashes; f_key permutes QR_p,
   so two values share a hash iff they share an encoding. *)
let own_layer cfg ops key vs =
  Obs.Span.with_ "own-set" @@ fun () ->
  let es =
    in_slices cfg
      (fun s ->
        let hs = Obs.Span.with_ "hash" (fun () -> hash_encoded cfg ops s) in
        Obs.Span.with_ "encrypt-own" (fun () -> encrypt_encoded ~decode cfg ops key hs))
      vs
  in
  Obs.Span.with_ "reorder" (fun () -> reorder (List.combine es vs))

(* f_key over the peer's list, in its order. *)
let peer_layer cfg ops key ys =
  Obs.Span.with_ "encrypt-peer"
    ~attrs:[ ("n", string_of_int (List.length ys)) ]
    (fun () -> encrypt_encoded_batch cfg ops key ys)

let rec is_sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as tl) -> String.compare a b <= 0 && is_sorted tl

(* ------------------------------------------------------------------ *)
(* Streaming sends: encrypt chunk k+1 while chunk k is on the wire.    *)
(* The frame is byte-identical to the equivalent batch send — same     *)
(* items, same order — so leakage shapes and wire accounting are       *)
(* unchanged; only the production schedule overlaps compute with I/O.  *)
(* ------------------------------------------------------------------ *)

(* Elements per streamed chunk. Big enough that a chunk amortizes the
   pool dispatch, small enough that the peer starts parsing while most
   of the batch is still being encrypted. *)
let stream_chunk = 64

let chunked_producer xs ~of_chunk =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | l ->
        let rec take k acc l =
          if k = 0 then (List.rev acc, l)
          else
            match l with
            | [] -> (List.rev acc, [])
            | x :: tl -> take (k - 1) (x :: acc) tl
        in
        let chunk, tl = take stream_chunk [] l in
        rest := tl;
        Some (of_chunk chunk)

(* The peer layer, streamed under [tag]: each encoded element of [ss]
   is re-encrypted (order-preserving) chunk by chunk as the transport
   drains the previous chunk. The channel pulls chunks from inside its
   [wire/send] span, so each chunk's encryption opens its own
   [encrypt-peer] span: the trace bills it to crypto, not the wire. *)
let send_encrypted_stream cfg ops key ep ~tag ss =
  Obs.Span.with_ "encrypt-peer" ~attrs:[ ("n", string_of_int (List.length ss)) ] @@ fun () ->
  Wire.Channel.send_elements_stream ep ~tag:(scoped cfg tag)
    ~width:(Group.element_bytes cfg.group)
    ~count:(List.length ss)
    (chunked_producer ss ~of_chunk:(fun chunk ->
         Obs.Span.with_ "encrypt-peer" (fun () -> encrypt_encoded_batch cfg ops key chunk)))

(* Stream already-computed fixed-width elements (I/O chunking only;
   for sends whose shuffle point forces the whole batch to exist
   before the first byte may leave). *)
let send_elements_stream cfg ep ~tag ss =
  Wire.Channel.send_elements_stream ep ~tag:(scoped cfg tag)
    ~width:(Group.element_bytes cfg.group)
    ~count:(List.length ss)
    (chunked_producer ss ~of_chunk:(fun c -> c))

(* Streamed [Element_pairs] with a per-chunk transform. *)
let send_pairs_stream cfg ep ~tag ~of_chunk ps =
  Wire.Channel.send_pairs_stream ep ~tag:(scoped cfg tag)
    ~width:(Group.element_bytes cfg.group)
    ~count:(List.length ps)
    (chunked_producer ps ~of_chunk)

(* One item as a one-element [Elements] message: a key, a blinded
   ciphertext, a sum. *)
let send_one cfg ep ~tag x =
  Wire.Channel.send ep (Wire.Message.make ~tag:(scoped cfg tag) (Wire.Message.Elements [ x ]))

let recv_tagged ep tag =
  let m = Wire.Channel.recv ep in
  if m.Wire.Message.tag <> tag then
    Wire.Errors.protocol_errorf "protocol error: expected message %S, got %S" tag
      m.Wire.Message.tag
  else m.Wire.Message.payload

let elements_of = function
  | Wire.Message.Elements es -> es
  | Wire.Message.Element_pairs _ | Wire.Message.Element_triples _
  | Wire.Message.Ciphertext_pairs _ ->
      Wire.Errors.protocol_errorf "protocol error: expected an element list"

let pairs_of = function
  | Wire.Message.Element_pairs ps | Wire.Message.Ciphertext_pairs ps -> ps
  | Wire.Message.Elements _ | Wire.Message.Element_triples _ ->
      Wire.Errors.protocol_errorf "protocol error: expected a pair list"

(* The protocol modules' receives: each scopes its tag and checks the
   payload's shape, so a malformed peer fails here and nowhere else. *)
let recv_elements cfg ep tag = elements_of (recv_tagged ep (scoped cfg tag))
let recv_pairs cfg ep tag = pairs_of (recv_tagged ep (scoped cfg tag))

let recv_one cfg ep tag =
  match recv_elements cfg ep tag with
  | [ x ] -> x
  | xs ->
      Wire.Errors.protocol_errorf "protocol error: %s: expected one item, got %d" tag
        (List.length xs)

let expect_count tag n xs =
  let got = List.length xs in
  if got <> n then
    Wire.Errors.protocol_errorf "protocol error: %s count mismatch (expected %d, got %d)" tag
      n got
  else xs
