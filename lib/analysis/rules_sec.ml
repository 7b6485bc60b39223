(* SEC01 — secret values must not reach the wire, telemetry, or error
   messages without first passing a sanitizer.

   The paper's semi-honest argument (Lemmas 1-4) allows only
   commutatively-encrypted or hashed values to cross the channel;
   anything derived from the DRBG or from key material is a secret
   until it passes one of the sanitizers below. The taint engine
   (lib/analysis/taint.ml) tracks explicit flows interprocedurally, so
   a secret that travels through helper functions, tuples, records or
   [Pool.map] pipelines is still caught at the sink; mapping a
   sanitizer over a secret collection ([encrypt_batch],
   [List.map (encrypt g k)]) cleans it. *)

let id = "SEC01"

(* Canonical paths (see Resolve) with '*' globs. *)
let sources =
  [
    "Drbg.generate"; (* raw DRBG output; to_rng/split inherit via summaries *)
    "Group.random_exponent";
    "Commutative.gen_key";
    "Commutative.key_of_exponent";
    "Commutative.exponent";
  ]

let sanitizers =
  [
    "Commutative.encrypt*";
    "Commutative.decrypt*";
    "Commutative.fingerprint";
    "Commutative.fp_of_exponent";
    "Hash_to_group.*";
    "Sha256.*";
    "Hmac.*";
    "*fingerprint*";
    (* Exponentiation hides the exponent under DDH — g^r is publishable
       even though r is secret (this is what Commutative.encrypt is). *)
    "Group.pow";
    (* XOR against a fresh DRBG pad is the OT one-time-pad layer: the
       ciphertext hides both operands. *)
    "Ot.xor";
    (* Removing the receiver's own additive pad from the decrypted
       aggregate leaves the sum itself: R's output, independent of the
       pad. *)
    "Aggregate.unblind";
    (* Synthetic benchmark and demo data: drawn from a DRBG so that it is
       reproducible from a public seed, not because it is secret. *)
    "Workload.*";
  ]

let sinks =
  [
    "Channel.send*";
    "Span.enter";
    "Span.with_";
    "Ring.note";
    "failwith";
    "invalid_arg";
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_endline";
    "prerr_endline";
  ]

let describe_taint taint =
  match Taint.concrete taint with
  | [] -> "secret value"
  | srcs -> "secret derived from " ^ String.concat ", " srcs

let check (ctx : Rule.sem_ctx) : Rule.finding list =
  let findings =
    List.filter_map
      (fun (ev : Taint.event) ->
        match ev.Taint.ev_kind with
        | `Sink sink when Taint.concrete ev.Taint.ev_taint <> [] ->
            let via =
              match ev.Taint.ev_via with
              | Some f -> Printf.sprintf " (inside %s)" f
              | None -> ""
            in
            Some
              {
                Rule.rule = id;
                file = ev.Taint.ev_file;
                line = ev.Taint.ev_pos.Ast.line;
                col = ev.Taint.ev_pos.Ast.col;
                token = "";
                message =
                  Printf.sprintf "%s reaches sink %s%s without a sanitizer"
                    (describe_taint ev.Taint.ev_taint)
                    sink via;
              }
        | _ -> None)
      ctx.Rule.taint.Taint.events
  in
  List.sort_uniq compare findings

let rule : Rule.sem =
  {
    s_id = id;
    s_summary =
      "no DRBG output or key material may reach the wire, telemetry attributes \
       or error messages without commutative encryption or hashing";
    s_description =
      "Interprocedural forward taint: sources (Drbg.generate, key material in \
       Commutative, Group.random_exponent) must pass a sanitizer \
       (Commutative.encrypt*/decrypt*, Hash_to_group.*, Sha256.*, fingerprints) \
       before reaching a sink (Channel.send*, Span/Ring attributes, \
       failwith/printf formatting). Explicit flows only; summaries carry taint \
       across calls.";
    s_scope = "lib/, bin/";
    s_check = check;
  }
