(* DBG01 — no stray console output or [assert false] in library code.

   Library modules must not write to the process's std channels —
   telemetry and reporting flow through [lib/obs], and a protocol party
   printing mid-run corrupts any driver that talks on stdout. Likewise
   [assert false] compiles to an untyped [Assert_failure] that callers
   cannot reasonably match; unreachable branches in library code should
   raise a named exception (or be restructured away). Binaries under
   bin/ own their stdout and are exempt. *)

let id = "DBG01"

let banned_idents =
  [
    "print_endline";
    "print_string";
    "print_newline";
    "print_int";
    "print_char";
    "print_float";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
  ]

let banned_paths =
  [ "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf" ]

let check ~file (toks : Tokens.token array) =
  let n = Array.length toks in
  let findings = ref [] in
  let add tok what msg = findings := Rule.finding ~rule:id ~file { tok with Tokens.text = what } msg :: !findings in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (match t.kind with
    | Tokens.Ident
      when List.exists (String.equal t.text) banned_idents
           && not (!i > 0 && Rule.is_sym toks.(!i - 1) ".")
           && not (!i > 0 && Rule.is_ident toks.(!i - 1) "let") ->
        add t t.text
          (Printf.sprintf
             "`%s` writes to a std channel from library code; route output \
              through lib/obs or return it to the caller"
             t.text)
    | Tokens.Ident
      when String.equal t.text "assert"
           && !i + 1 < n
           && Rule.is_ident toks.(!i + 1) "false" ->
        add t "assert false"
          "`assert false` raises an unmatchable Assert_failure from library \
           code; raise a named exception for unreachable branches"
    | Tokens.Uident ->
        let path, next = Rule.qualified_at toks !i in
        let p = Rule.path_string path in
        if List.exists (String.equal p) banned_paths then
          add t p
            (Printf.sprintf
               "`%s` writes to a std channel from library code; route output \
                through lib/obs or return it to the caller"
               p);
        i := Stdlib.max !i (next - 1)
    | _ -> ());
    incr i
  done;
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary =
      "no Printf.printf/print_endline/assert false in lib/ — telemetry goes \
       through lib/obs";
    description =
      "Console output from library code bypasses the Obs exporters (and can leak \
       values the protocol promised to keep private); `assert false` aborts with \
       no context. Route telemetry through lib/obs and raise named exceptions.";
    scope = "lib/";
    applies = Rule.in_dir "lib/";
    check;
  }
