(* psi_lint — crypto-hygiene static analyzer for the protocol stack.

   Scans lib/ and bin/ (by default) for the rule families documented in
   docs/STATIC_ANALYSIS.md. Token rules (CT01, RNG01, EXN01, ERR01, WIRE01,
   DBG01, DOM01, OBS01) run per file over the token stream; semantic
   rules (SEC01, CT02, RACE01) run after the parse/resolve/taint phases
   over the whole program at once. Exit status 0 iff there are no
   non-baselined findings and no errors.

   --selfcheck DIR runs the engine over the seeded-bad fixture corpus:
   every `(* lint-expect: RULE *)` comment in DIR must be matched by a
   finding of that rule on that line, and every finding must be
   expected — the corpus is the executable spec of the rules.

   The bench harness (bench/main.exe) times the same Driver run and
   gates its per-rule counts and wall time. *)

let usage =
  "psi_lint [--root DIR] [--baseline FILE] [--json FILE] [--update-baseline] \
   [--list-rules] [--selfcheck DIR] [DIR...]"

let root = ref "."
let baseline_path = ref "tools/lint_baseline.txt"
let json_out = ref ""
let update_baseline = ref false
let list_rules = ref false
let selfcheck_root = ref ""
let dirs = ref []

let spec =
  [
    ("--root", Arg.Set_string root, "DIR repository root (default .)");
    ( "--baseline",
      Arg.Set_string baseline_path,
      "FILE baseline file, relative to root (default tools/lint_baseline.txt)" );
    ( "--json",
      Arg.Set_string json_out,
      "FILE write a JSONL report (header + findings + summary) to FILE, '-' for stdout" );
    ( "--update-baseline",
      Arg.Set update_baseline,
      " rewrite the baseline from current findings (keeps existing justifications, \
       marks new entries TODO)" );
    ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
    ( "--selfcheck",
      Arg.Set_string selfcheck_root,
      "DIR verify every lint-expect annotation in the fixture corpus at DIR fires" );
  ]

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* ------------------------------------------------------------------ *)
(* --list-rules                                                        *)
(* ------------------------------------------------------------------ *)

let print_rules () =
  List.iter
    (fun (e : Analysis.Registry.entry) ->
      Printf.printf "%-7s %-9s %s\n        scope: %s\n        %s\n" e.e_id
        (match e.e_kind with `Token -> "token" | `Semantic -> "semantic")
        e.e_summary e.e_scope e.e_description)
    Analysis.Registry.entries

(* ------------------------------------------------------------------ *)
(* --selfcheck                                                         *)
(* ------------------------------------------------------------------ *)

(* Expected findings are written next to the seeded violation:
   [(* lint-expect: SEC01 *)] (comma-separated for several rules) on
   the offending line. *)
let expectations_of ~path content =
  let marker = "lint-expect:" in
  let find_marker text =
    let n = String.length text and m = String.length marker in
    let rec go i =
      if i + m > n then None
      else if String.equal (String.sub text i m) marker then Some (i + m)
      else go (i + 1)
    in
    go 0
  in
  match Analysis.Tokens.of_string content with
  | exception Analysis.Tokens.Error _ -> []
  | toks ->
      List.concat_map
        (fun (t : Analysis.Tokens.token) ->
          if t.kind <> Analysis.Tokens.Comment then []
          else
            match find_marker t.text with
            | None -> []
            | Some start ->
                let rest = String.sub t.text start (String.length t.text - start) in
                let rest =
                  match String.index_opt rest '*' with
                  | Some j when j + 1 < String.length rest && rest.[j + 1] = ')' ->
                      String.sub rest 0 j
                  | _ -> rest
                in
                String.split_on_char ',' rest
                |> List.filter_map (fun r ->
                       match String.trim r with
                       | "" -> None
                       | r -> Some (path, t.line, r)))
        toks

let selfcheck dir =
  let sources = Analysis.Driver.sources ~root:dir [ "" ] in
  if sources = [] then begin
    Printf.eprintf "psi_lint: selfcheck: no fixture files under %s\n" dir;
    exit 2
  end;
  let expected =
    List.concat_map
      (fun (s : Analysis.Driver.source) -> expectations_of ~path:s.path s.content)
      sources
  in
  if expected = [] then begin
    Printf.eprintf "psi_lint: selfcheck: no lint-expect annotations under %s\n" dir;
    exit 2
  end;
  let outcome =
    Analysis.Driver.analyze ~sem_rules:Analysis.Registry.sem_rules
      ~baseline:Analysis.Suppress.Baseline.empty sources
  in
  List.iter (fun e -> Printf.eprintf "psi_lint: selfcheck: error: %s\n" e) outcome.errors;
  let found =
    List.map
      (fun (f : Analysis.Rule.finding) -> (f.file, f.line, f.rule))
      (Analysis.Driver.new_findings outcome)
  in
  let failures = ref (List.length outcome.errors) in
  List.iter
    (fun ((file, line, rule) as e) ->
      if List.mem e found then Printf.printf "ok   %s:%d: %s\n" file line rule
      else begin
        Printf.printf "MISS %s:%d: seeded %s violation not reported\n" file line rule;
        incr failures
      end)
    expected;
  List.iter
    (fun ((file, line, rule) as f) ->
      if not (List.mem f expected) then begin
        Printf.printf "EXTRA %s:%d: unexpected %s finding\n" file line rule;
        incr failures
      end)
    found;
  Printf.printf "psi_lint: selfcheck: %d expectation%s, %d finding%s, %d failure%s\n"
    (List.length expected)
    (if List.length expected = 1 then "" else "s")
    (List.length found)
    (if List.length found = 1 then "" else "s")
    !failures
    (if !failures = 1 then "" else "s");
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  if !list_rules then begin
    print_rules ();
    exit 0
  end;
  if not (String.equal !selfcheck_root "") then selfcheck !selfcheck_root;
  let scan_dirs = match List.rev !dirs with [] -> [ "lib"; "bin" ] | ds -> ds in
  let baseline =
    match Analysis.Driver.baseline ~root:!root !baseline_path with
    | Ok b -> b
    | Error e ->
        Printf.eprintf "psi_lint: %s: %s\n" !baseline_path e;
        exit 2
  in
  let outcome =
    Analysis.Driver.analyze ~sem_rules:Analysis.Registry.sem_rules ~baseline
      (Analysis.Driver.sources ~root:!root scan_dirs)
  in
  if !update_baseline then begin
    let entries = Analysis.Driver.updated_baseline outcome in
    write_file (Filename.concat !root !baseline_path)
      (Analysis.Suppress.Baseline.render entries);
    Printf.printf "psi_lint: wrote %d entr%s to %s\n" (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      !baseline_path;
    exit 0
  end;
  (match !json_out with
  | "" -> ()
  | "-" -> print_string (Analysis.Report.jsonl outcome)
  | path -> write_file path (Analysis.Report.jsonl outcome));
  Format.printf "%a@?" Analysis.Report.pp_console outcome;
  exit (if Analysis.Driver.clean outcome then 0 else 1)
