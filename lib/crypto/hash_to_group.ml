module Nat = Bignum.Nat

(* The §6.1 model's Ch: one ideal-hash evaluation per call. *)
let c_evals = Obs.Metrics.counter "crypto.hash_to_group.evals"

let expand_bytes ~dst msg nbytes =
  (* Counter-mode expansion: SHA256(dst || ctr_be32 || msg) blocks. *)
  let buf = Buffer.create nbytes in
  let ctr = ref 0 in
  while Buffer.length buf < nbytes do
    let ctr_bytes =
      String.init 4 (fun i -> Char.chr ((!ctr lsr (8 * (3 - i))) land 0xff))
    in
    Buffer.add_string buf (Sha256.digest_concat [ dst; ctr_bytes; msg ]);
    incr ctr
  done;
  Buffer.sub buf 0 nbytes

(* Everything before the final squaring: expand, reduce, retry the
   vanishing residue. Split out so [hash_batch] can defer the squarings
   to [Group.sqr_batch] (one Montgomery arena per chunk) while this
   per-element half keeps the Ch counter honest: one eval per value,
   batched or not. *)
let derive g ~domain v =
  Obs.Metrics.incr c_evals;
  let p = Group.p g in
  let nbytes = ((Group.modulus_bits g + 128) + 7) / 8 in
  let rec attempt salt =
    let dst = Printf.sprintf "psi:h2g:%s:%d" domain salt in
    let y = Nat.rem (Nat.of_bytes_be (expand_bytes ~dst v nbytes)) p in
    if Nat.is_zero y then attempt (salt + 1) (* probability ~2^-modulus_bits *)
    else y
  in
  attempt 0

(* A nonzero square mod p is in QR_p by construction, so no membership
   test runs here; the tests pin every output as an element. *)
let hash_value g ~domain v =
  let y = derive g ~domain v in
  Group.mul g y y

let hash g v = hash_value g ~domain:"default" v

(* Pool variant: hashing draws no randomness and the eval counter is
   atomic, so the pooled result and telemetry match the sequential map
   at every pool size. Each chunk derives its residues, then squares
   them through [Group.sqr_batch] so a fixed-width kernel amortizes one
   scratch arena across the chunk; squaring is [Group.mul g y y] bit
   for bit on every kernel. *)
let hash_chunk g ~domain chunk =
  Group.sqr_batch g (List.map (derive g ~domain) chunk)

let hash_batch ?pool g ~domain vs =
  match pool with
  | None -> Parallel.Pool.map_chunks_seq (hash_chunk g ~domain) vs
  | Some pool -> Parallel.Pool.map_chunks pool (hash_chunk g ~domain) vs
