(* DOM01 — no raw domains outside the pool.

   All parallelism flows through [Parallel.Pool] (lib/parallel): a fixed-size
   pool whose chunking is a pure function of input length, so results
   and DRBG consumption are independent of scheduling. A stray
   [Domain.spawn]/[Domain.join] bypasses that discipline — unbounded
   domain counts (the runtime degrades past recommended_domain_count),
   no telemetry, and ad-hoc joins that can deadlock against the pool's
   own caller-helping loop. Only lib/parallel may touch [Domain]
   directly. *)

let id = "DOM01"

let banned = [ "spawn"; "join" ]

let check ~file (toks : Tokens.token array) =
  let n = Array.length toks in
  let findings = ref [] in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (if t.kind = Tokens.Uident && String.equal t.text "Domain" then
       let path, _ = Rule.qualified_at toks !i in
       match path with
       | "Domain" :: rest when List.exists (fun f -> List.mem f rest) banned ->
           findings :=
             Rule.finding ~rule:id ~file t
               (Printf.sprintf
                  "%s spawns or joins a raw domain; use Parallel.Pool (lib/parallel) so \
                   parallelism stays bounded, deterministic and instrumented"
                  (Rule.path_string path))
             :: !findings
       | _ -> ());
    incr i
  done;
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary = "no Domain.spawn/Domain.join outside lib/parallel/ — use Parallel.Pool";
    description =
      "Raw domains outside the pool break the bounded-domain-count invariant, \
       make chunking nondeterministic, and hide work from pool.* telemetry. \
       All parallelism flows through Parallel.Pool.";
    scope = "everywhere except lib/parallel/";
    applies = (fun path -> not (Rule.in_dir "lib/parallel/" path));
    check;
  }
