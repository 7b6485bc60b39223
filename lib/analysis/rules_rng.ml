(* RNG01 — no ad-hoc randomness in protocol code.

   Lemmas 1–4 assume encryption keys and blinding values drawn uniformly
   from Z_q by a cryptographically strong source. [Stdlib.Random] is a
   non-cryptographic PRNG (and its default state is shared, seedable and
   predictable), so any [Random.*] call in library or binary code is a
   protocol break: all randomness must flow through [Crypto.Drbg]
   (HMAC-DRBG) and the rng handles derived from it. Tests are exempt —
   the scanner only covers lib/ and bin/. *)

let id = "RNG01"

let check ~file (toks : Tokens.token array) =
  let n = Array.length toks in
  let findings = ref [] in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (if t.kind = Tokens.Uident && String.equal t.text "Random" then
       (* Only a *use* of the module counts: [Random.int], [Random.State.*],
          or passing the module itself ([(module Random)]). A capitalized
          identifier elsewhere (e.g. a constructor named Random) would
          not be followed by [.]. *)
       if !i + 1 < n && Rule.is_sym toks.(!i + 1) "." then
         findings :=
           Rule.finding ~rule:id ~file t
             (Printf.sprintf
                "%s draws from Stdlib.Random (non-cryptographic, shared state); \
                 protocol randomness must come from Crypto.Drbg"
                (Rule.path_string (fst (Rule.qualified_at toks !i))))
           :: !findings);
    incr i
  done;
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary = "no Stdlib.Random outside test/ — randomness flows through Crypto.Drbg";
    description =
      "Stdlib.Random is neither cryptographically secure nor reproducible \
       across runs; the paper's uniform-randomness assumption (Lemma 1) \
       requires all protocol randomness to come from the seeded DRBG.";
    scope = "lib/, bin/ (tests exempt: not scanned)";
    applies = (fun _ -> true);
    check;
  }
