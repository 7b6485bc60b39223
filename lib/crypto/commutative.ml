module Nat = Bignum.Nat
module Modular = Bignum.Modular

(* Keys carry the 4-bit window decomposition of both exponents,
   computed once at keygen: a batch of encryptions under one key skips
   the per-element exponent scan. The fingerprint is computed once too:
   the persistent element cache above this library keys its per-key
   slices by it, so two runs that derive the same exponent from the
   same Drbg seed address the same entries, and a fresh key misses
   everything by construction. *)
type key = {
  e : Nat.t;
  e_inv : Nat.t;
  e_win : Modular.Mont.exponent;
  e_inv_win : Modular.Mont.exponent;
  fp : string;
}

(* Telemetry: the §6.1 model's Ce is exactly one modexp, so these
   counters are the ground truth the model is validated against. *)
let c_encrypts = Obs.Metrics.counter "crypto.commutative.encrypts"
let c_decrypts = Obs.Metrics.counter "crypto.commutative.decrypts"
let c_keygens = Obs.Metrics.counter "crypto.commutative.keygens"
let h_modexp_ns = Obs.Metrics.histogram "crypto.commutative.modexp_ns"
let h_keygen_ns = Obs.Metrics.histogram "crypto.commutative.keygen_ns"

let timed counter hist f =
  if Obs.Runtime.is_enabled () then begin
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    Obs.Metrics.observe hist (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0));
    Obs.Metrics.incr counter;
    r
  end
  else f ()

(* Batch counterpart of [timed]: one clock read brackets the whole
   chunk, the counter advances by the chunk length, and the histogram
   receives one observation per element at the amortized per-element
   cost. A sequential run and a batched run therefore agree exactly on
   every counter (Ce ground truth) and on histogram counts; only the
   per-observation durations differ, which is the point — the histogram
   reports what an element actually cost, amortization included. *)
let timed_batch counter hist f xs =
  if Obs.Runtime.is_enabled () then begin
    let n = List.length xs in
    let t0 = Obs.Clock.now_ns () in
    let r = f xs in
    let dt = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) in
    if n > 0 then begin
      let per = dt /. float_of_int n in
      for _ = 1 to n do
        Obs.Metrics.observe hist per
      done;
      Obs.Metrics.incr ~by:n counter
    end;
    r
  end
  else f xs

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* One-way fingerprint of the key material: SHA-256 over (p, e), domain
   separated and truncated to 128 bits. Safe to persist in cache files
   on the key owner's own disk — recovering [e] from it means inverting
   SHA-256 — but it is a stable identifier, so two runs reusing one key
   are linkable through it (the documented `Cached key-policy tradeoff). *)
let fp_of_exponent g e =
  let d =
    Sha256.digest_concat
      [ "psi:key-fp:v1"; Nat.to_bytes_be (Group.p g); Nat.to_bytes_be e ]
  in
  hex (String.sub d 0 16)

let key_of_exponent g e =
  if Nat.is_zero e || Nat.compare e (Group.q g) >= 0 then
    invalid_arg "Commutative.key_of_exponent: exponent outside [1, q-1]"
  else begin
    timed c_keygens h_keygen_ns (fun () ->
        (* q is prime, so every nonzero exponent is invertible mod q. *)
        let e_inv = Modular.inv_exn e (Group.q g) in
        {
          e;
          e_inv;
          e_win = Group.precompute_exp e;
          e_inv_win = Group.precompute_exp e_inv;
          fp = fp_of_exponent g e;
        })
  end

let gen_key g ~rng = key_of_exponent g (Group.random_exponent g ~rng)
let exponent k = k.e
let fingerprint k = k.fp

let encrypt g k x =
  timed c_encrypts h_modexp_ns (fun () -> Group.pow_pre g x k.e_win)

let decrypt g k y =
  timed c_decrypts h_modexp_ns (fun () -> Group.pow_pre g y k.e_inv_win)

(* Batch variants over the pool. Each chunk goes through
   [Group.pow_batch] whole, so one scratch arena serves the chunk and
   several bases ride a single window scan (simultaneous
   multi-exponentiation); the results are bit-identical to per-element
   [pow_pre]. Counter and histogram probes are
   Domain-safe (atomics / mutex) and [timed_batch] preserves the exact
   counter arithmetic of the per-element path, so telemetry matches a
   sequential run at every pool size. *)
let pow_chunk counter g win chunk =
  timed_batch counter h_modexp_ns (fun xs -> Group.pow_batch g xs win) chunk

let encrypt_batch ?pool g k xs =
  match pool with
  | None -> pow_chunk c_encrypts g k.e_win xs
  | Some pool ->
      Parallel.Pool.map_chunks pool (pow_chunk c_encrypts g k.e_win) xs

let decrypt_batch ?pool g k ys =
  match pool with
  | None -> pow_chunk c_decrypts g k.e_inv_win ys
  | Some pool ->
      Parallel.Pool.map_chunks pool (pow_chunk c_decrypts g k.e_inv_win) ys
