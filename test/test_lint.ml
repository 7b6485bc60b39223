(* psi_lint unit tests: the token adapter against tricky OCaml surface
   syntax,
   every rule both firing and suppressed, and the baseline freeze /
   unfreeze workflow. All fixtures are in-memory sources fed through
   [Analysis.Driver.analyze] — the linter never touches the filesystem
   here, exactly as in production (the binary does the IO). *)

module Tokens = Analysis.Tokens
module Rule = Analysis.Rule
module Suppress = Analysis.Suppress
module Driver = Analysis.Driver

let no_baseline = Suppress.Baseline.empty

let analyze ?(baseline = no_baseline) ~path src =
  Driver.analyze ~baseline [ { Driver.path; content = src } ]

let new_rules o = List.map (fun (f : Rule.finding) -> f.rule) (Driver.new_findings o)

let suppressed_rules (o : Driver.outcome) =
  List.filter_map
    (fun (c : Driver.classified) ->
      match c.status with `Suppressed _ -> Some c.finding.Rule.rule | _ -> None)
    o.results

let baselined_rules (o : Driver.outcome) =
  List.filter_map
    (fun (c : Driver.classified) ->
      match c.status with `Baselined _ -> Some c.finding.Rule.rule | _ -> None)
    o.results

let check_rules = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Token adapter                                                       *)
(* ------------------------------------------------------------------ *)

(* Concatenating token texts must reproduce the source minus layout:
   nothing is lost and nothing is invented, whatever the nesting. *)
let strip_ws s =
  String.to_seq s
  |> Seq.filter (fun c -> not (c = ' ' || c = '\t' || c = '\n' || c = '\r'))
  |> String.of_seq

let roundtrip src =
  let toks = Tokens.of_string src in
  Alcotest.(check string)
    "token texts reproduce the source" (strip_ws src)
    (strip_ws (String.concat "" (List.map (fun (t : Tokens.token) -> t.text) toks)))

let test_lexer_roundtrip () =
  roundtrip {x|let f (a : int) = a + 1|x};
  roundtrip {x|let s = "quote \" and (* not a comment *) inside"|x};
  roundtrip {x|(* outer (* nested *) and a "string *) inside" *) let x = 1|x};
  roundtrip {x|let c = 'a' and nl = '\n' and hex = '\x41' and poly : 'a t = v|x};
  roundtrip {x|let raw = {q|verbatim "no escapes" here|q} and empty = {||}|x};
  roundtrip {x|let n = 0xFF_EC and f = 1.5e-3 and g = 0x1p+4|x};
  roundtrip {x|let g = f ~x:1 ?y:None a.(i) ;; let h ~x ?(y = 2) () = [| x; y |]|x}

let kinds src = List.map (fun (t : Tokens.token) -> t.Tokens.kind) (Tokens.of_string src)

(* (kind, text) of every significant token. *)
let shape src =
  Tokens.significant (Tokens.of_string src)
  |> List.map (fun (t : Tokens.token) -> (t.kind, t.text))

let check_shape what src expected =
  if shape src <> expected then
    Alcotest.failf "%s: unexpected tokens [%s]" what
      (String.concat " " (List.map (fun (_, text) -> text) (shape src)))

let test_lexer_kinds () =
  (* A nested comment is ONE token; the string inside does not escape. *)
  (match kinds {x|(* a (* b *) "c *) d" *) x|x} with
  | [ Tokens.Comment; Tokens.Ident ] -> ()
  | _ -> Alcotest.fail "nested comment with embedded string should be one Comment token");
  (* Char literal vs type variable quote. *)
  (match kinds {x|'a' 'b|x} with
  | [ Tokens.Char_lit; Tokens.Symbol; Tokens.Ident ] -> ()
  | _ -> Alcotest.fail "char literal then type variable");
  (* Qualified access lexes as Uident / "." / Ident. *)
  check_shape "qualified path" "Stdlib.compare"
    [ (Tokens.Uident, "Stdlib"); (Symbol, "."); (Ident, "compare") ];
  (* The compiler's LABEL/OPTLABEL tokens split into "~"/"?", the
     name and ":", as a rule reading [~key:] expects. *)
  check_shape "labels" "f ~x:1 ?y:z"
    [
      (Tokens.Ident, "f"); (Symbol, "~"); (Ident, "x"); (Symbol, ":"); (Number, "1");
      (Symbol, "?"); (Ident, "y"); (Symbol, ":"); (Ident, "z");
    ];
  check_shape "array index" "a.(i)"
    [ (Tokens.Ident, "a"); (Symbol, "."); (Symbol, "("); (Ident, "i"); (Symbol, ")") ];
  (* A quoted string with a delimiter is one literal, whatever it holds. *)
  check_shape "quoted string" {x|let s = {id|a "b" |} (* c|id}|x}
    [
      (Tokens.Ident, "let"); (Ident, "s"); (Symbol, "=");
      (String_lit, {x|{id|a "b" |} (* c|id}|x});
    ];
  (* Touching operators stay the compiler's tokens: [:=] then [!]. *)
  check_shape "touching operators" "r:=!r+1"
    [ (Tokens.Ident, "r"); (Symbol, ":="); (Symbol, "!"); (Ident, "r"); (Symbol, "+"); (Number, "1") ]

let test_lexer_positions () =
  (match Tokens.of_string "let x =\n  y" with
  | [ _let; _x; _eq; y ] ->
      Alcotest.(check int) "line" 2 y.Tokens.line;
      Alcotest.(check int) "col" 3 y.Tokens.col
  | _ -> Alcotest.fail "expected four tokens");
  (* Pieces of a split compiler token keep their own columns. *)
  match Tokens.of_string "f ~key:v" with
  | [ _f; tilde; key; colon; _v ] ->
      Alcotest.(check (list int)) "label columns" [ 3; 4; 7 ]
        [ tilde.Tokens.col; key.Tokens.col; colon.Tokens.col ]
  | _ -> Alcotest.fail "expected five tokens"

let test_lexer_errors () =
  let expect_error src =
    match Tokens.of_string src with
    | exception Tokens.Error _ -> ()
    | _ -> Alcotest.fail ("lexer accepted: " ^ src)
  in
  expect_error "(* never closed";
  expect_error {x|let s = "no closing quote|x};
  expect_error "let c = '\\n";
  (* A lexer failure surfaces as a run error, not a crash, and names
     the file, the position and the phase. *)
  let o = analyze ~path:"lib/core/broken.ml" "let x = 1\n(* open" in
  Alcotest.(check bool) "lexer error fails the run" false (Driver.clean o);
  Alcotest.(check int) "an unread file is not scanned" 0 o.files_scanned;
  match o.errors with
  | [ e ] ->
      let prefix = "lib/core/broken.ml:2:1: lexer error" in
      Alcotest.(check string) "path:line:col: lexer error" prefix
        (String.sub e 0 (min (String.length e) (String.length prefix)))
  | _ -> Alcotest.failf "expected one error, got %d" (List.length o.errors)

(* ------------------------------------------------------------------ *)
(* CT01                                                                *)
(* ------------------------------------------------------------------ *)

let test_ct01_fires () =
  let o = analyze ~path:"lib/bignum/fixture.ml" "let f a b = Stdlib.compare a b" in
  check_rules "qualified Stdlib.compare" [ "CT01" ] (new_rules o);
  let o = analyze ~path:"lib/crypto/fixture.ml" "let eq a b = a == b" in
  check_rules "physical equality" [ "CT01" ] (new_rules o);
  let o = analyze ~path:"lib/bignum/fixture.ml" "let m xs x = List.mem x xs" in
  check_rules "List.mem" [ "CT01" ] (new_rules o);
  let o = analyze ~path:"lib/bignum/fixture.ml" "let s xs = List.sort ( <> ) xs" in
  check_rules "operator section" [ "CT01" ] (new_rules o);
  (* Unqualified compare means Stdlib's unless the file defined one. *)
  let o = analyze ~path:"lib/bignum/fixture.ml" "let g x y = compare x y" in
  check_rules "bare compare" [ "CT01" ] (new_rules o)

let test_ct01_shadowing_and_scope () =
  let shadowed =
    "let compare a b = Int.compare a b\nlet g x y = compare x y\nlet h a = Nat.compare a a"
  in
  check_rules "local definition shadows Stdlib" []
    (new_rules (analyze ~path:"lib/bignum/fixture.ml" shadowed));
  (* Qualified use of another module's compare is monomorphic: fine. *)
  check_rules "Int.compare is fine" []
    (new_rules (analyze ~path:"lib/bignum/fixture.ml" "let f a b = Int.compare a b"));
  (* Outside the secret-bearing modules the rule does not apply. *)
  check_rules "lib/core is out of scope" []
    (new_rules (analyze ~path:"lib/core/fixture.ml" "let f a b = Stdlib.compare a b"))

let test_ct01_suppressed () =
  let src =
    "(* psi-lint: allow CT01 — fixture: operands are public lengths *)\n\
     let f a b = Stdlib.compare a b"
  in
  let o = analyze ~path:"lib/bignum/fixture.ml" src in
  check_rules "no new findings" [] (new_rules o);
  check_rules "suppressed instead" [ "CT01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* RNG01                                                               *)
(* ------------------------------------------------------------------ *)

let test_rng01_fires () =
  let o = analyze ~path:"lib/core/fixture.ml" "let x = Random.int 5" in
  check_rules "Random.int" [ "RNG01" ] (new_rules o);
  let o = analyze ~path:"bin/fixture.ml" "let s = Random.State.make [| 1 |]" in
  check_rules "Random.State in bin/" [ "RNG01" ] (new_rules o);
  (* A constructor named Random is not a module use. *)
  let o = analyze ~path:"lib/core/fixture.ml" "let src = Random" in
  check_rules "bare constructor" [] (new_rules o)

let test_rng01_suppressed () =
  let src =
    "let jitter () = Random.int 3 (* psi-lint: allow RNG01 — fixture: jitter is not \
     protocol randomness *)"
  in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "suppressed" [ "RNG01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* EXN01                                                               *)
(* ------------------------------------------------------------------ *)

let test_exn01_fires () =
  let o = analyze ~path:"lib/core/fixture.ml" "let f g = try g () with _ -> 0" in
  check_rules "catch-all" [ "EXN01" ] (new_rules o);
  let o = analyze ~path:"lib/core/fixture.ml" "let f g = try g () with | _ -> 0" in
  check_rules "catch-all with leading bar" [ "EXN01" ] (new_rules o)

let test_exn01_negatives () =
  let ok src = check_rules src [] (new_rules (analyze ~path:"lib/core/fixture.ml" src)) in
  ok "let f x = match x with _ -> 0";
  ok "let f g = try g () with Not_found -> 0";
  ok "let g r = { r with x = 1 }";
  (* A match nested inside a try must not eat the try's [with]. *)
  ok "let f g x = try (match x with _ -> g ()) with Not_found -> 0"

let test_exn01_suppressed () =
  let src =
    "(* psi-lint: allow EXN01 — fixture: best-effort cleanup may not fail *)\n\
     let f g = try g () with _ -> ()"
  in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "suppressed" [ "EXN01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* ERR01                                                               *)
(* ------------------------------------------------------------------ *)

let test_err01_fires () =
  let fires src = check_rules src [ "ERR01" ] (new_rules (analyze ~path:"lib/core/fixture.ml" src)) in
  fires "let f ep = match Channel.recv ep with _ -> failwith \"bad frame\"";
  fires "let f cfg ep = if Protocol.recv_one cfg ep \"t\" = \"\" then raise (Failure \"x\")";
  (* The failure may come before the read in the same item. *)
  fires "let f p ep = if p then failwith \"x\" else elements_of (recv_tagged ep \"t\")";
  fires "let f ep = Stdlib.failwith (recv_hello ep)"

let test_err01_negatives () =
  let ok path src = check_rules src [] (new_rules (analyze ~path src)) in
  (* Typed errors on the receive path. *)
  ok "lib/core/fixture.ml"
    "let f ep = match Channel.recv ep with _ -> Wire.Errors.protocol_errorf \"bad\"";
  (* Each top-level item on its own: a failing neighbour that reads
     nothing is a local invariant. *)
  ok "lib/core/fixture.ml"
    "let g xs = if xs = [] then failwith \"empty\" else xs\nlet f ep = g (elements_of (Channel.recv ep))";
  (* Defining a reader is not reading. *)
  ok "lib/core/fixture.ml" "let elements_of = function [] -> failwith \"x\" | l -> l";
  (* Channel.received is the transcript, not a read. *)
  ok "lib/core/fixture.ml" "let f ep = match Channel.received ep with [] -> failwith \"x\" | l -> l";
  (* Outside lib/core and lib/wire. *)
  ok "lib/service/fixture.ml" "let f ep = match Channel.recv ep with _ -> failwith \"x\""

let test_err01_suppressed () =
  let src =
    "(* psi-lint: allow ERR01 — fixture: the caller maps Failure itself *)\n\
     let f ep = match Channel.recv ep with _ -> failwith \"x\""
  in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "suppressed" [ "ERR01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* WIRE01                                                              *)
(* ------------------------------------------------------------------ *)

let test_wire01_fires () =
  let o =
    analyze ~path:"lib/wire/fixture.ml" "let read_bytes r = read_raw r (read_varint r)"
  in
  check_rules "inline varint into read_raw" [ "WIRE01" ] (new_rules o);
  let o =
    analyze ~path:"lib/wire/fixture.ml" "let f r b = String.sub b 0 (read_u32 r)"
  in
  check_rules "inline u32 into String.sub" [ "WIRE01" ] (new_rules o);
  let o = analyze ~path:"lib/wire/fixture.ml" "let g r = Bytes.create (read_varint r)" in
  check_rules "inline varint into Bytes.create" [ "WIRE01" ] (new_rules o)

let test_wire01_negatives () =
  (* The enforced fix shape: name the length, bound it, then allocate. *)
  let fixed =
    "let read_bytes ?(max = max_chunk_bytes) r =\n\
    \  let n = read_varint r in\n\
    \  if n > max then fail n;\n\
    \  read_raw r n"
  in
  check_rules "bounded read passes" []
    (new_rules (analyze ~path:"lib/wire/fixture.ml" fixed));
  (* Outside lib/wire the rule does not apply. *)
  check_rules "out of scope" []
    (new_rules
       (analyze ~path:"lib/core/fixture.ml" "let f r = read_raw r (read_varint r)"))

let test_wire01_suppressed () =
  let src =
    "(* psi-lint: allow WIRE01 — fixture: length was bounded by the framing layer *)\n\
     let f r = read_raw r (read_varint r)"
  in
  let o = analyze ~path:"lib/wire/fixture.ml" src in
  check_rules "suppressed" [ "WIRE01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* DBG01                                                               *)
(* ------------------------------------------------------------------ *)

let test_dbg01_fires () =
  let o = analyze ~path:"lib/core/fixture.ml" {|let f () = print_endline "x"|} in
  check_rules "print_endline" [ "DBG01" ] (new_rules o);
  let o = analyze ~path:"lib/core/fixture.ml" {|let f () = Printf.printf "%d" 1|} in
  check_rules "Printf.printf" [ "DBG01" ] (new_rules o);
  let o = analyze ~path:"lib/core/fixture.ml" "let g () = assert false" in
  check_rules "assert false" [ "DBG01" ] (new_rules o)

let test_dbg01_negatives () =
  let ok path src = check_rules src [] (new_rules (analyze ~path src)) in
  ok "lib/core/fixture.ml" {|let s = Printf.sprintf "%d" 1|};
  ok "lib/core/fixture.ml" "let ok x = assert (x > 0)";
  (* Binaries own their stdout. *)
  ok "bin/fixture.ml" {|let () = print_endline "usage"|}

let test_dbg01_suppressed () =
  let src =
    "let g = function\n\
    \  (* psi-lint: allow DBG01 — fixture: list is non-empty by construction *)\n\
    \  | [] -> assert false\n\
    \  | x :: _ -> x"
  in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "suppressed" [ "DBG01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* DOM01                                                               *)
(* ------------------------------------------------------------------ *)

let test_dom01_fires () =
  let o = analyze ~path:"lib/core/fixture.ml" "let d f = Domain.spawn f" in
  check_rules "Domain.spawn" [ "DOM01" ] (new_rules o);
  let o = analyze ~path:"bin/fixture.ml" "let r d = Domain.join d" in
  check_rules "Domain.join in bin/" [ "DOM01" ] (new_rules o)

let test_dom01_negatives () =
  let ok path src = check_rules src [] (new_rules (analyze ~path src)) in
  (* The pool implementation is the one place raw domains are allowed. *)
  ok "lib/parallel/pool.ml" "let d f = Domain.spawn f";
  (* Reading the core count is not spawning. *)
  ok "lib/core/fixture.ml" "let n () = Domain.recommended_domain_count ()";
  (* A constructor named Domain is not the module. *)
  ok "lib/core/fixture.ml" "let d = Domain"

let test_dom01_suppressed () =
  let src =
    "(* psi-lint: allow DOM01 — fixture: one-shot helper domain in a test rig *)\n\
     let d f = Domain.spawn f"
  in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "suppressed" [ "DOM01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* OBS01                                                               *)
(* ------------------------------------------------------------------ *)

let test_obs01_fires () =
  let o =
    analyze ~path:"lib/core/fixture.ml"
      "let f () = let h = Obs.Span.enter \"x\" in work ()"
  in
  check_rules "enter without exit" [ "OBS01" ] (new_rules o);
  (* Two enters, one exit: only the surplus enter is flagged. *)
  let o =
    analyze ~path:"lib/core/fixture.ml"
      "let f () =\n\
      \  let a = Span.enter \"x\" in\n\
      \  let b = Span.enter \"y\" in\n\
      \  Span.exit a; work b"
  in
  check_rules "surplus enter flagged once" [ "OBS01" ] (new_rules o)

let test_obs01_negatives () =
  let ok path src = check_rules src [] (new_rules (analyze ~path src)) in
  (* Balanced bracketing within one top-level item. *)
  ok "lib/core/fixture.ml"
    "let f () = let h = Obs.Span.enter \"x\" in work (); Obs.Span.exit h";
  (* with_ is the recommended scoped form; nothing to pair. *)
  ok "lib/core/fixture.ml" "let f () = Obs.Span.with_ \"x\" work";
  (* Counting resets at each top-level item: a balanced pair in one item
     does not excuse (or condemn) its neighbour. *)
  ok "lib/core/fixture.ml"
    "let f h = Span.exit h\nlet g () = let h = Span.enter \"x\" in f h; Span.exit h";
  (* bin/ may hand-bracket across scopes (interactive CLIs). *)
  ok "bin/fixture.ml" "let f () = ignore (Obs.Span.enter \"x\")";
  (* The Ring constructor Enter is not Span.enter. *)
  ok "lib/core/fixture.ml" "let e = Ring.Enter \"x\""

let test_obs01_suppressed () =
  let src =
    "(* psi-lint: allow OBS01 — fixture: handle escapes to the caller *)\n\
     let begin_step () = Obs.Span.enter \"step\""
  in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "suppressed" [ "OBS01" ] (suppressed_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* Annotations                                                         *)
(* ------------------------------------------------------------------ *)

let test_annotation_reason_mandatory () =
  let src = "(* psi-lint: allow DBG01 *)\nlet g () = assert false" in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  Alcotest.(check bool) "missing reason is an error" false (Driver.clean o);
  Alcotest.(check int) "one error" 1 (List.length o.errors)

let test_annotation_range () =
  (* Coverage is the annotation's line and the next line only. *)
  let src = "(* psi-lint: allow DBG01 — fixture: too far away *)\nlet a = 1\nlet g () = assert false" in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "two lines below: not covered" [ "DBG01" ] (new_rules o)

let test_annotation_wrong_rule () =
  let src = "(* psi-lint: allow CT01 — fixture: wrong rule id *)\nlet g () = assert false" in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  check_rules "annotation for another rule does not cover" [ "DBG01" ] (new_rules o)

let test_annotation_multi_rule () =
  let src =
    "(* psi-lint: allow CT01,DBG01 — fixture: one reason for both *)\n\
     let g a b = if compare a b = 0 then assert false"
  in
  let o = analyze ~path:"lib/bignum/fixture.ml" src in
  check_rules "both suppressed" [] (new_rules o);
  Alcotest.(check int) "two suppressions" 2 (List.length (suppressed_rules o))

let test_annotation_stale () =
  (* An annotation that suppresses nothing is an error, like a stale
     baseline entry: it would silently cover a future finding. *)
  let src = "(* psi-lint: allow DBG01 — fixture: nothing below *)\nlet g () = ()" in
  let o = analyze ~path:"lib/core/fixture.ml" src in
  Alcotest.(check bool) "stale annotation fails the run" false (Driver.clean o);
  Alcotest.(check int) "one error" 1 (List.length o.errors);
  (* A token-only run cannot judge a semantic rule's annotation. *)
  let src = "(* psi-lint: allow SEC01 — fixture: SEC01 did not run *)\nlet g () = ()" in
  Alcotest.(check bool) "unjudged rule is not stale" true
    (Driver.clean (analyze ~path:"lib/core/fixture.ml" src));
  (* Prose that mentions the marker is not an annotation. *)
  let src = "(* write psi-lint: allow DBG01 to suppress *)\nlet g () = ()" in
  Alcotest.(check bool) "prose is not an annotation" true
    (Driver.clean (analyze ~path:"lib/core/fixture.ml" src))

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let fixture_path = "lib/core/fixture.ml"
let fixture_src = "let g () = assert false"

let entry ?(reason = "fixture: frozen pre-existing finding") fingerprint =
  { Suppress.Baseline.rule = "DBG01"; file = fixture_path; fingerprint; reason }

(* Fingerprints are context hashes, not line numbers — compute them the
   way --update-baseline does rather than hardcoding the hash. *)
let fingerprints_of ~path src =
  List.map
    (fun (e : Suppress.Baseline.entry) -> e.fingerprint)
    (Driver.updated_baseline (analyze ~path src))

let fingerprint_of ~path src =
  match fingerprints_of ~path src with
  | [ fp ] -> fp
  | fps -> Alcotest.failf "expected one finding, got %d" (List.length fps)

let test_baseline_freezes () =
  let baseline = [ entry (fingerprint_of ~path:fixture_path fixture_src) ] in
  let o = analyze ~baseline ~path:fixture_path fixture_src in
  check_rules "no new findings" [] (new_rules o);
  check_rules "baselined instead" [ "DBG01" ] (baselined_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

let stem fp =
  match String.rindex_opt fp '#' with
  | Some i -> String.sub fp 0 i
  | None -> fp

let test_baseline_does_not_cover_new () =
  (* Three identical lines: the first two asserts see identical ±3 token
     windows, so they share a context hash and disambiguate by
     occurrence index; freezing occurrence #1 must not cover the rest. *)
  let src = String.concat "\n" [ fixture_src; fixture_src; fixture_src ] in
  let fps = fingerprints_of ~path:fixture_path src in
  Alcotest.(check int) "three findings" 3 (List.length fps);
  let fp1 = List.nth fps 0 and fp2 = List.nth fps 1 in
  Alcotest.(check string) "same context hash" (stem fp1) (stem fp2);
  Alcotest.(check bool) "distinct occurrence index" true (not (String.equal fp1 fp2));
  let o = analyze ~baseline:[ entry fp1 ] ~path:fixture_path src in
  check_rules "later occurrences are new" [ "DBG01"; "DBG01" ] (new_rules o);
  check_rules "first stays frozen" [ "DBG01" ] (baselined_rules o);
  Alcotest.(check bool) "not clean" false (Driver.clean o)

let test_baseline_line_move_tolerant () =
  (* The whole point of context fingerprints: prepending unrelated code
     and comments moves the finding's line but not its identity. *)
  let fp = fingerprint_of ~path:fixture_path fixture_src in
  let moved = "(* a new leading comment *)\n\nlet added = 1\n\n" ^ fixture_src in
  let o = analyze ~baseline:[ entry fp ] ~path:fixture_path moved in
  check_rules "no new findings after the move" [] (new_rules o);
  check_rules "moved finding still frozen" [ "DBG01" ] (baselined_rules o);
  Alcotest.(check bool) "clean" true (Driver.clean o)

let test_baseline_stale_entry () =
  (* Finding fixed but entry left behind: the baseline can only shrink. *)
  let baseline = [ entry (fingerprint_of ~path:fixture_path fixture_src) ] in
  let o = analyze ~baseline ~path:fixture_path "let g () = 0" in
  Alcotest.(check bool) "stale entry fails the run" false (Driver.clean o);
  Alcotest.(check int) "one error" 1 (List.length o.errors)

let test_baseline_todo_rejected () =
  let fp = fingerprint_of ~path:fixture_path fixture_src in
  let baseline = [ entry ~reason:"TODO — justify or fix" fp ] in
  let o = analyze ~baseline ~path:fixture_path fixture_src in
  Alcotest.(check bool) "TODO reason is an error" false (Driver.clean o)

let test_baseline_update_roundtrip () =
  (* --update-baseline: new findings become TODO entries; rendering and
     re-parsing reproduces them; once justified, the run is clean. *)
  let o = analyze ~path:fixture_path fixture_src in
  let entries = Driver.updated_baseline o in
  Alcotest.(check int) "one entry" 1 (List.length entries);
  let e = List.hd entries in
  let fp = e.Suppress.Baseline.fingerprint in
  let prefix = "assert false@" in
  Alcotest.(check string) "fingerprint token prefix" prefix
    (String.sub fp 0 (min (String.length fp) (String.length prefix)));
  Alcotest.(check bool) "fingerprint has an occurrence index" true
    (String.length fp > 2 && String.equal (String.sub fp (String.length fp - 2) 2) "#1");
  Alcotest.(check bool) "TODO entry is unexplained" false
    (Suppress.Baseline.is_explained e);
  (match Suppress.Baseline.parse (Suppress.Baseline.render entries) with
  | Ok parsed ->
      Alcotest.(check int) "render/parse round-trip" (List.length entries)
        (List.length parsed)
  | Error e -> Alcotest.fail e);
  let justified = [ { e with Suppress.Baseline.reason = "fixture: justified" } ] in
  let o = analyze ~baseline:justified ~path:fixture_path fixture_src in
  Alcotest.(check bool) "clean once justified" true (Driver.clean o)

(* ------------------------------------------------------------------ *)
(* Semantic rules (parser + resolver + taint engine)                   *)
(* ------------------------------------------------------------------ *)

let analyze_sem ?(baseline = no_baseline) ~path src =
  Driver.analyze ~sem_rules:Analysis.Registry.sem_rules ~baseline
    [ { Driver.path; content = src } ]

let uniq_rules o = List.sort_uniq compare (new_rules o)

let test_sec01_fires () =
  let src = "let leak st ep = Channel.send ep (Drbg.generate st 32)" in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "raw secret to the channel" [ "SEC01" ] (uniq_rules o)

let test_sec01_interprocedural () =
  (* The sink is one call deep: taint must flow through [forward]'s
     parameter summary and the finding lands at the tainted call site. *)
  let src =
    "let forward ep x = Channel.send ep x\n\
     let leak st ep = forward ep (Drbg.generate st 32)"
  in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "leak through helper" [ "SEC01" ] (uniq_rules o);
  match Driver.new_findings o with
  | [ f ] -> Alcotest.(check int) "reported at the call site" 2 f.Rule.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_sec01_sanitized () =
  let src =
    "let ok g key ep x = Channel.send ep (Commutative.encrypt g key x)\n\
     let ok2 st ep = Channel.send ep (Sha256.hex_digest (Drbg.generate st 32))"
  in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "sanitizers clear the taint" [] (uniq_rules o)

(* Declared-public results: a DRBG-built value leaves [Workload.*] and
   [Aggregate.unblind] clean, while the same flow through a function of
   another module still fires. *)
let test_sec01_public_results () =
  let run ~workload ~aggregate =
    let file modname content =
      { Driver.path = "lib/core/" ^ String.lowercase_ascii modname ^ ".ml"; content }
    in
    Driver.analyze ~sem_rules:Analysis.Registry.sem_rules ~baseline:no_baseline
      [
        file workload "let tables st = Drbg.generate st 32";
        file aggregate "let unblind ~n masked rho = Bignum.Modular.sub masked rho n";
        file "Fixture"
          (Printf.sprintf
             "let demo st ep = Channel.send ep (%s.tables st)\n\
              let sum st ep = Channel.send ep (%s.unblind ~n:7 3 (Drbg.generate st 32))"
             workload aggregate);
      ]
  in
  check_rules "Workload and Aggregate.unblind results are public" []
    (uniq_rules (run ~workload:"Workload" ~aggregate:"Aggregate"));
  let o = run ~workload:"Synth" ~aggregate:"Sums" in
  Alcotest.(check int) "the same flows elsewhere are leaks" 2 (List.length (Driver.new_findings o))

let test_sec01_suppressed () =
  let src =
    "(* psi-lint: allow SEC01 — fixture: deliberate leak *)\n\
     let leak st ep = Channel.send ep (Drbg.generate st 32)"
  in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "no new findings" [] (uniq_rules o);
  check_rules "suppressed instead" [ "SEC01" ] (suppressed_rules o)

let test_ct02_fires () =
  let src = "let f st = if Drbg.generate st 32 = \"\" then 0 else 1" in
  let o = analyze_sem ~path:"lib/bignum/fixture.ml" src in
  check_rules "secret-dependent branch" [ "CT02" ] (uniq_rules o)

let test_ct02_scope () =
  (* Same branch outside the constant-time kernels: out of scope. *)
  let src = "let f st = if Drbg.generate st 32 = \"\" then 0 else 1" in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "no finding outside lib/bignum and lib/crypto" [] (uniq_rules o)

let test_ct02_sanitized () =
  let src = "let f st = if Sha256.hex_digest (Drbg.generate st 32) = \"\" then 0 else 1" in
  let o = analyze_sem ~path:"lib/bignum/fixture.ml" src in
  check_rules "digest is public" [] (uniq_rules o)

let test_race01_fires () =
  let src =
    "let tally pool xs =\n\
    \  let hits = ref 0 in\n\
    \  Pool.map pool (fun x -> hits := !hits + x) xs"
  in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "unmediated shared ref" [ "RACE01" ] (uniq_rules o)

let test_race01_mediated () =
  let src =
    "let tally pool xs =\n\
    \  let hits = Atomic.make 0 in\n\
    \  Pool.map pool (fun x -> Atomic.fetch_and_add hits x) xs"
  in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "Atomic mediation accepted" [] (uniq_rules o)

(* A tally both parties add to: the sender closure is a partial
   application of a local function that mutates the captured record
   through a function of the same file. *)
let party_tally_src ~mediated =
  Printf.sprintf
    "type ops = { mutable hashes : int }\n\
     let add_ops dst (src : ops) = dst.hashes <- dst.hashes + src.hashes\n\
     let execute drbg run_party =\n\
    \  let tally = { hashes = 0 } in\n\
    \  let lock = Mutex.create () in\n\
    \  let play party d ep = %s in\n\
    \  Protocol.launch drbg ~sender:(play `Sender) ~receiver:(play `Receiver)"
    (if mediated then "Mutex.protect lock (fun () -> add_ops tally (run_party party d ep))"
     else "add_ops tally (run_party party d ep)")

let test_race01_party_sender () =
  let o = analyze_sem ~path:"lib/core/fixture.ml" (party_tally_src ~mediated:false) in
  check_rules "shared tally in the sender closure" [ "RACE01" ] (uniq_rules o);
  let o = analyze_sem ~path:"lib/core/fixture.ml" (party_tally_src ~mediated:true) in
  check_rules "tally under a lock" [] (uniq_rules o)

let test_race01_party_receiver () =
  (* The receiver runs on the caller's thread: a ref only it writes is
     no race. *)
  let src =
    "let count run_sender recv =\n\
    \  let n = ref 0 in\n\
    \  let _ = Runner.run ~sender:run_sender ~receiver:(fun ep -> n := recv ep) in\n\
    \  !n"
  in
  let o = analyze_sem ~path:"lib/core/fixture.ml" src in
  check_rules "receiver-only ref" [] (uniq_rules o)

let test_sem_parse_error_reported () =
  (* A file the parser cannot handle must surface as an error, never be
     silently skipped by the semantic analyses. *)
  let o = analyze_sem ~path:"lib/core/fixture.ml" "let f x = (x" in
  Alcotest.(check bool) "parse error recorded" true (List.length o.Driver.errors > 0);
  Alcotest.(check bool) "not clean" false (Driver.clean o)

let test_baseline_parse_rejects_malformed () =
  match Suppress.Baseline.parse "DBG01 lib/x.ml assert_false#1 spaces not tabs" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "space-separated line should be rejected"

(* ------------------------------------------------------------------ *)

let tc = Alcotest.test_case

let () =
  Alcotest.run "lint"
    [
      ( "lexer",
        [
          tc "roundtrip" `Quick test_lexer_roundtrip;
          tc "kinds" `Quick test_lexer_kinds;
          tc "positions" `Quick test_lexer_positions;
          tc "errors" `Quick test_lexer_errors;
        ] );
      ( "ct01",
        [
          tc "fires" `Quick test_ct01_fires;
          tc "shadowing & scope" `Quick test_ct01_shadowing_and_scope;
          tc "suppressed" `Quick test_ct01_suppressed;
        ] );
      ( "rng01",
        [ tc "fires" `Quick test_rng01_fires; tc "suppressed" `Quick test_rng01_suppressed ] );
      ( "err01",
        [
          tc "fires" `Quick test_err01_fires;
          tc "negatives" `Quick test_err01_negatives;
          tc "suppressed" `Quick test_err01_suppressed;
        ] );
      ( "exn01",
        [
          tc "fires" `Quick test_exn01_fires;
          tc "negatives" `Quick test_exn01_negatives;
          tc "suppressed" `Quick test_exn01_suppressed;
        ] );
      ( "wire01",
        [
          tc "fires" `Quick test_wire01_fires;
          tc "negatives" `Quick test_wire01_negatives;
          tc "suppressed" `Quick test_wire01_suppressed;
        ] );
      ( "dbg01",
        [
          tc "fires" `Quick test_dbg01_fires;
          tc "negatives" `Quick test_dbg01_negatives;
          tc "suppressed" `Quick test_dbg01_suppressed;
        ] );
      ( "dom01",
        [
          tc "fires" `Quick test_dom01_fires;
          tc "negatives" `Quick test_dom01_negatives;
          tc "suppressed" `Quick test_dom01_suppressed;
        ] );
      ( "obs01",
        [
          tc "fires" `Quick test_obs01_fires;
          tc "negatives" `Quick test_obs01_negatives;
          tc "suppressed" `Quick test_obs01_suppressed;
        ] );
      ( "annotations",
        [
          tc "reason mandatory" `Quick test_annotation_reason_mandatory;
          tc "range" `Quick test_annotation_range;
          tc "wrong rule" `Quick test_annotation_wrong_rule;
          tc "multi-rule" `Quick test_annotation_multi_rule;
          tc "stale" `Quick test_annotation_stale;
        ] );
      ( "sec01",
        [
          tc "fires" `Quick test_sec01_fires;
          tc "interprocedural" `Quick test_sec01_interprocedural;
          tc "sanitized" `Quick test_sec01_sanitized;
          tc "public results" `Quick test_sec01_public_results;
          tc "suppressed" `Quick test_sec01_suppressed;
        ] );
      ( "ct02",
        [
          tc "fires" `Quick test_ct02_fires;
          tc "scope" `Quick test_ct02_scope;
          tc "sanitized" `Quick test_ct02_sanitized;
        ] );
      ( "race01",
        [
          tc "fires" `Quick test_race01_fires;
          tc "mediated" `Quick test_race01_mediated;
          tc "party sender" `Quick test_race01_party_sender;
          tc "party receiver" `Quick test_race01_party_receiver;
        ] );
      ( "semantic",
        [ tc "parse error reported" `Quick test_sem_parse_error_reported ] );
      ( "baseline",
        [
          tc "freezes" `Quick test_baseline_freezes;
          tc "new finding not covered" `Quick test_baseline_does_not_cover_new;
          tc "line-move tolerant" `Quick test_baseline_line_move_tolerant;
          tc "stale entry" `Quick test_baseline_stale_entry;
          tc "TODO rejected" `Quick test_baseline_todo_rejected;
          tc "update round-trip" `Quick test_baseline_update_roundtrip;
          tc "parse rejects malformed" `Quick test_baseline_parse_rejects_malformed;
        ] );
    ]
