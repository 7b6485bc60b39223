(* WIRE01 — bound lengths before allocating.

   A length prefix on the wire is attacker-controlled. Code in
   [lib/wire] that feeds a freshly-read length ([read_varint],
   [read_u32]) straight into an allocating operation ([read_raw],
   [String.sub], [Bytes.create], ...) commits to the claimed size
   before any sanity check can run. The fix shape the rule enforces is
   syntactic: bind the length to a name, compare it against a declared
   maximum, then allocate — so the flagged pattern is precisely "an
   allocator call whose argument list contains a raw length read".

   This is an approximation (no dataflow), but a faithful one for this
   codebase: the only way to trip it is to inline the unchecked read,
   and the only way to pass it is to name-and-bound the length. *)

let id = "WIRE01"
let length_readers = [ "read_varint"; "read_u32" ]

let allocators_unqualified = [ "read_raw" ]

let allocators_qualified =
  [ "String.sub"; "String.init"; "Bytes.create"; "Bytes.sub"; "Array.make"; "Array.init" ]

let max_window = 24 (* tokens scanned for the allocator's argument list *)

let check ~file (toks : Tokens.token array) =
  let n = Array.length toks in
  let findings = ref [] in
  let last_ident (t : Tokens.token) = t.kind = Tokens.Ident in
  (* Scan the argument window after an allocator: token [i] is the last
     token of the allocator name. Stop at a statement boundary or when
     the parenthesis depth drops below the starting level. *)
  let window_has_length_read i =
    let depth = ref 0 in
    let j = ref (i + 1) in
    let hit = ref false in
    let stop = ref false in
    while (not !stop) && (not !hit) && !j < n && !j <= i + max_window do
      let t = toks.(!j) in
      (match t.kind with
      | Tokens.Symbol when String.equal t.text "(" -> incr depth
      | Tokens.Symbol when String.equal t.text ")" ->
          decr depth;
          if !depth < 0 then stop := true
      | Tokens.Symbol when String.equal t.text ";" && !depth = 0 -> stop := true
      | Tokens.Ident
        when (String.equal t.text "let" || String.equal t.text "in") && !depth = 0 ->
          stop := true
      | Tokens.Ident when List.exists (String.equal t.text) length_readers -> hit := true
      | _ -> ());
      incr j
    done;
    !hit
  in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (match t.kind with
    | Tokens.Ident
      when List.exists (String.equal t.text) allocators_unqualified
           && not (!i > 0 && Rule.is_sym toks.(!i - 1) ".")
           && not (!i > 0 && Rule.is_ident toks.(!i - 1) "let") ->
        if window_has_length_read !i then
          findings :=
            Rule.finding ~rule:id ~file t
              (Printf.sprintf
                 "`%s` is applied to a raw wire length with no intervening bound \
                  check; bind the length, compare it to a declared max, then read"
                 t.text)
            :: !findings
    | Tokens.Uident ->
        let path, next = Rule.qualified_at toks !i in
        let p = Rule.path_string path in
        if List.exists (String.equal p) allocators_qualified then begin
          let last = next - 1 in
          if last >= 0 && last_ident toks.(last) && window_has_length_read last then
            findings :=
              Rule.finding ~rule:id ~file t
                (Printf.sprintf
                   "`%s` allocates from a raw wire length with no intervening bound \
                    check; bind the length, compare it to a declared max, then \
                    allocate"
                   p)
              :: !findings
        end;
        i := Stdlib.max !i (next - 1)
    | _ -> ());
    incr i
  done;
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary =
      "lib/wire: length-prefixed reads must bound the length against a declared max \
       before allocating";
    description =
      "Allocating from a length read straight off the wire lets a malicious \
       peer demand arbitrary memory. Bind the length, compare it against a \
       declared maximum, then allocate.";
    scope = "lib/wire/";
    applies = Rule.in_dir "lib/wire/";
    check;
  }
