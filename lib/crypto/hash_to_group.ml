module Nat = Bignum.Nat

(* The §6.1 model's Ch: one ideal-hash evaluation per call. *)
let c_evals = Obs.Metrics.counter "crypto.hash_to_group.evals"

(* Counter-mode expansion: the first [nbytes] of the concatenated
   SHA256(dst || ctr_be32 || msg) blocks, each part fed to its own
   [Sha256.update]. Every block reuses the caller's context [h]. *)
let expand_bytes h ~dst msg nbytes =
  let out = Bytes.create nbytes in
  let ctr = Bytes.create 4 in
  let rec block i =
    let pos = i * Sha256.digest_size in
    if pos < nbytes then begin
      Bytes.set_int32_be ctr 0 (Int32.of_int i);
      Sha256.reset h;
      Sha256.update h dst;
      Sha256.update h (Bytes.unsafe_to_string ctr);
      Sha256.update h msg;
      Bytes.blit_string (Sha256.finalize h) 0 out pos
        (Int.min Sha256.digest_size (nbytes - pos));
      block (i + 1)
    end
  in
  block 0;
  Bytes.unsafe_to_string out

let tag ~domain salt = Printf.sprintf "psi:h2g:%s:%d" domain salt

(* Everything before the final squaring: expand, reduce, retry the
   vanishing residue. Split out so [hash_batch] can defer the squarings
   to [Group.sqr_batch] (one Montgomery arena per chunk) while this
   per-element half keeps the Ch counter honest: one eval per value,
   batched or not. [tag0] is [tag ~domain 0] and [h] a SHA-256 context,
   both built once by the caller. *)
let derive g h ~domain ~tag0 v =
  Obs.Metrics.incr c_evals;
  let p = Group.p g in
  let nbytes = ((Group.modulus_bits g + 128) + 7) / 8 in
  let rec attempt salt =
    let dst = if salt = 0 then tag0 else tag ~domain salt in
    let y = Nat.rem (Nat.of_bytes_be (expand_bytes h ~dst v nbytes)) p in
    if Nat.is_zero y then attempt (salt + 1) (* probability ~2^-modulus_bits *)
    else y
  in
  attempt 0

(* A nonzero square mod p is in QR_p by construction, so no membership
   test runs here; the tests pin every output as an element. *)
let hash_value g ~domain v =
  let y = derive g (Sha256.init ()) ~domain ~tag0:(tag ~domain 0) v in
  Group.mul g y y

let hash g v = hash_value g ~domain:"default" v

(* Pool variant: hashing draws no randomness and the eval counter is
   atomic, so the pooled result and telemetry match the sequential map
   at every pool size. Each chunk derives its residues, then squares
   them through [Group.sqr_batch] so a fixed-width kernel amortizes one
   scratch arena across the chunk; squaring is [Group.mul g y y] bit
   for bit on every kernel. A chunk runs on one domain, so its one
   SHA-256 context is never shared. *)
let hash_chunk g ~domain chunk =
  let tag0 = tag ~domain 0 and h = Sha256.init () in
  Group.sqr_batch g (List.map (derive g h ~domain ~tag0) chunk)

let hash_batch ?pool g ~domain vs =
  match pool with
  | None -> Parallel.Pool.map_chunks_seq (hash_chunk g ~domain) vs
  | Some pool -> Parallel.Pool.map_chunks pool (hash_chunk g ~domain) vs
