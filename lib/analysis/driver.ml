(* Ties the pieces together: lex each source, run the applicable token
   rules, then (when semantic rules are requested) parse the whole
   tree, build the resolver and taint summaries, and run the semantic
   rules over the program at once. Findings from both kinds feed the
   same suppression/baseline pipeline. [analyze] is pure; [sources] and
   [baseline] are the file reads psi_lint and the bench harness share. *)

type source = { path : string; content : string }

type classified = {
  finding : Rule.finding;
  fingerprint : string; (* "token@ctxhash#occurrence", see [fingerprints] *)
  status : [ `New | `Baselined of string | `Suppressed of string ];
}

type outcome = {
  files_scanned : int; (* sources that lexed; the others are in [errors] *)
  results : classified list; (* in scan order *)
  errors : string list;
      (* malformed annotations, stale or unexplained baseline entries,
         lexer/parser failures — any of these fails the run *)
  phases : (string * float) list; (* phase name -> wall ms, in run order *)
  rule_ms : (string * float) list; (* rule id -> wall ms *)
}

let rules = Registry.token_rules
let rule_ids = Registry.rule_ids

let now_ms () = Int64.to_float (Obs.Clock.now_ns ()) /. 1e6

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every .ml file under [dirs] (relative to [root]; [""] is [root]
   itself), skipping build and hidden directories, with root-relative
   paths in a deterministic order. *)
let sources ~root dirs =
  let rec collect acc dir =
    let entries = try Sys.readdir (Filename.concat root dir) with Sys_error _ -> [||] in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let rel = if String.equal dir "" then name else dir ^ "/" ^ name in
        if String.length name = 0 || name.[0] = '.' || name.[0] = '_' then acc
        else if Sys.is_directory (Filename.concat root rel) then collect acc rel
        else if Filename.check_suffix name ".ml" then rel :: acc
        else acc)
      acc entries
  in
  List.concat_map (fun d -> List.rev (collect [] d)) dirs
  |> List.map (fun path -> { path; content = read_file (Filename.concat root path) })

(* The baseline at [root]/[path]; a missing file is the empty baseline. *)
let baseline ~root path =
  let file = Filename.concat root path in
  if Sys.file_exists file then Suppress.Baseline.parse (read_file file)
  else Ok Suppress.Baseline.empty

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* Line-move-tolerant fingerprints: token text, a 32-bit FNV-1a hash of
   the surrounding significant-token texts (3 on each side — no line
   numbers, so inserting code above a finding does not invalidate its
   baseline entry), and an occurrence index for identical contexts:
   "token@1a2b3c4d#k". *)

let fnv1a32 (texts : string list) =
  let h = ref 0x811c9dc5 in
  List.iter
    (fun s ->
      String.iter
        (fun c ->
          h := !h lxor Char.code c;
          h := !h * 0x01000193 land 0xffffffff)
        s;
      (* separator so ["ab";"c"] and ["a";"bc"] differ *)
      h := !h lxor 0xff;
      h := !h * 0x01000193 land 0xffffffff)
    texts;
  !h

let context_window = 3

(* Index in [sig_toks] of the token a finding points at: exact
   (line, col) match first, then the first token on the line. *)
let token_index (sig_toks : Tokens.token array) ~line ~col =
  let n = Array.length sig_toks in
  let exact = ref (-1) and on_line = ref (-1) in
  let i = ref 0 in
  while !exact < 0 && !i < n do
    let t = sig_toks.(!i) in
    if t.Tokens.line = line then begin
      if !on_line < 0 then on_line := !i;
      if t.Tokens.col = col then exact := !i
    end;
    incr i
  done;
  if !exact >= 0 then !exact else !on_line

let context_hash (sig_toks : Tokens.token array) idx =
  if idx < 0 then fnv1a32 []
  else begin
    let n = Array.length sig_toks in
    let lo = Stdlib.max 0 (idx - context_window) in
    let hi = Stdlib.min (n - 1) (idx + context_window) in
    let texts = ref [] in
    for j = hi downto lo do
      if j <> idx then texts := sig_toks.(j).Tokens.text :: !texts
    done;
    fnv1a32 !texts
  end

let fingerprints (sig_toks : Tokens.token array) (findings : Rule.finding list) =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (f : Rule.finding) ->
      let idx = token_index sig_toks ~line:f.line ~col:f.col in
      (* Semantic findings arrive with an empty token; anchor them to
         the source token they point at so fingerprints and reports
         show real code. *)
      let f =
        if String.equal f.token "" && idx >= 0 then
          { f with Rule.token = sig_toks.(idx).Tokens.text }
        else f
      in
      let h = context_hash sig_toks idx in
      let key = (f.rule, f.token, h) in
      let k = 1 + (try Hashtbl.find seen key with Not_found -> 0) in
      Hashtbl.replace seen key k;
      (f, Printf.sprintf "%s@%08x#%d" f.token h k))
    findings

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type lexed = {
  l_path : string;
  l_anns : Suppress.annotation list;
  l_sig : Tokens.token array;
  l_src : string;
}

let by_position (a : Rule.finding) (b : Rule.finding) =
  if a.line <> b.line then Int.compare a.line b.line
  else if a.col <> b.col then Int.compare a.col b.col
  else String.compare a.rule b.rule

let analyze ?(rules = rules) ?(sem_rules = []) ?(spec = Registry.taint_spec)
    ~(baseline : Suppress.Baseline.t) (sources : source list) : outcome =
  let errors = ref [] in
  let phases = ref [] in
  let rule_ms = ref [] in
  let timed name f =
    let t0 = now_ms () in
    let r = f () in
    phases := (name, now_ms () -. t0) :: !phases;
    r
  in
  let add_rule_ms id dt =
    rule_ms :=
      match List.assoc_opt id !rule_ms with
      | Some prev -> (id, prev +. dt) :: List.remove_assoc id !rule_ms
      | None -> (id, dt) :: !rule_ms
  in
  (* Phase 1: lex. A file that fails to lex is reported and dropped. *)
  let lexed =
    timed "lex" (fun () ->
        List.filter_map
          (fun { path; content } ->
            match Tokens.of_string content with
            | exception Tokens.Error { line; col; message } ->
                errors :=
                  Printf.sprintf "%s:%d:%d: lexer error: %s" path line col message
                  :: !errors;
                None
            | tokens ->
                let anns, ann_errs = Suppress.scan ~file:path tokens in
                errors := List.rev_append ann_errs !errors;
                Some
                  {
                    l_path = path;
                    l_anns = anns;
                    l_sig = Array.of_list (Tokens.significant tokens);
                    l_src = content;
                  })
          sources)
  in
  (* Phase 2: token rules, per file. *)
  let token_findings =
    timed "token_rules" (fun () ->
        List.map
          (fun l ->
            ( l.l_path,
              List.concat_map
                (fun (r : Rule.t) ->
                  if r.applies l.l_path then begin
                    let t0 = now_ms () in
                    let fs = r.check ~file:l.l_path l.l_sig in
                    add_rule_ms r.id (now_ms () -. t0);
                    fs
                  end
                  else [])
                rules ))
          lexed)
  in
  (* Phases 3-5: parse / resolve / taint, then the semantic rules —
     only when any are requested, so token-only runs stay cheap. *)
  let sem_findings =
    if sem_rules = [] then []
    else begin
      let structures =
        timed "parse" (fun () ->
            List.filter_map
              (fun l ->
                match Lower.structure_of_string l.l_src with
                | exception Tokens.Error { line; col; message } ->
                    errors :=
                      Printf.sprintf "%s:%d:%d: parse error: %s" l.l_path line col
                        message
                      :: !errors;
                    None
                | s -> Some (l.l_path, s))
              lexed)
      in
      let resolver = timed "resolve" (fun () -> Resolve.build structures) in
      let taint = timed "taint" (fun () -> Taint.analyze ~spec resolver) in
      let ctx = { Rule.structures; resolver; taint } in
      timed "sem_rules" (fun () ->
          List.concat_map
            (fun (s : Rule.sem) ->
              let t0 = now_ms () in
              let fs = s.s_check ctx in
              add_rule_ms s.s_id (now_ms () -. t0);
              fs)
            sem_rules)
    end
  in
  (* Classify per file, in scan order. *)
  let results = ref [] in
  let used_baseline : (Suppress.Baseline.entry, unit) Hashtbl.t = Hashtbl.create 16 in
  let used_anns : (string * int, unit) Hashtbl.t = Hashtbl.create 16 in
  timed "classify" (fun () ->
      List.iter
        (fun l ->
          let findings =
            (try List.assoc l.l_path token_findings with Not_found -> [])
            @ List.filter
                (fun (f : Rule.finding) -> String.equal f.file l.l_path)
                sem_findings
            |> List.stable_sort by_position
          in
          List.iter
            (fun ((f : Rule.finding), fingerprint) ->
              let status =
                match Suppress.covering l.l_anns f with
                | Some a ->
                    Hashtbl.replace used_anns (l.l_path, a.line) ();
                    `Suppressed a.reason
                | None -> (
                    match
                      List.find_opt
                        (fun (e : Suppress.Baseline.entry) ->
                          String.equal e.rule f.Rule.rule
                          && String.equal e.file f.Rule.file
                          && String.equal e.fingerprint fingerprint
                          && not (Hashtbl.mem used_baseline e))
                        baseline
                    with
                    | Some e ->
                        Hashtbl.replace used_baseline e ();
                        if not (Suppress.Baseline.is_explained e) then
                          errors :=
                            Printf.sprintf
                              "baseline entry %s %s %s has no justification; explain \
                               it or fix the finding"
                              e.rule e.file e.fingerprint
                            :: !errors;
                        `Baselined e.reason
                    | None -> `New)
              in
              results := { finding = f; fingerprint; status } :: !results)
            (fingerprints l.l_sig findings))
        lexed);
  (* Inline annotations that suppressed nothing are stale, unless one
     of their rules did not run (a token-only analysis cannot vouch for
     a SEC01 annotation). *)
  let ran =
    List.map (fun (r : Rule.t) -> r.id) rules
    @ List.map (fun (s : Rule.sem) -> s.s_id) sem_rules
  in
  List.iter
    (fun l ->
      List.iter
        (fun (a : Suppress.annotation) ->
          if
            (not (Hashtbl.mem used_anns (l.l_path, a.line)))
            && List.for_all (fun r -> List.mem r ran) a.rules
          then
            errors :=
              Printf.sprintf
                "%s:%d: stale psi-lint annotation for %s: it suppresses no finding; \
                 delete it"
                l.l_path a.line (String.concat "," a.rules)
              :: !errors)
        l.l_anns)
    lexed;
  (* Baseline entries that matched nothing are stale. *)
  List.iter
    (fun (e : Suppress.Baseline.entry) ->
      if not (Hashtbl.mem used_baseline e) then
        errors :=
          Printf.sprintf
            "stale baseline entry %s %s %s: no such finding (fixed code? regenerate \
             with --update-baseline)"
            e.rule e.file e.fingerprint
          :: !errors)
    baseline;
  {
    files_scanned = List.length lexed;
    results = List.rev !results;
    errors = List.rev !errors;
    phases = List.rev !phases;
    rule_ms = List.rev !rule_ms;
  }

let new_findings outcome =
  List.filter_map
    (fun c -> match c.status with `New -> Some c.finding | _ -> None)
    outcome.results

let clean outcome =
  (match new_findings outcome with [] -> true | _ :: _ -> false)
  && match outcome.errors with [] -> true | _ :: _ -> false

(* [updated_baseline outcome] carries forward justifications for
   findings that remain and adds TODO entries for new ones: the
   workflow for a consciously-accepted finding is update, then edit the
   TODO into a real justification (the checker rejects TODOs). *)
let updated_baseline (outcome : outcome) : Suppress.Baseline.t =
  List.filter_map
    (fun c ->
      match c.status with
      | `Suppressed _ -> None
      | `New ->
          Some
            {
              Suppress.Baseline.rule = c.finding.Rule.rule;
              file = c.finding.Rule.file;
              fingerprint = c.fingerprint;
              reason = Suppress.Baseline.todo_reason ^ " — justify or fix";
            }
      | `Baselined reason ->
          Some
            {
              Suppress.Baseline.rule = c.finding.Rule.rule;
              file = c.finding.Rule.file;
              fingerprint = c.fingerprint;
              reason;
            })
    outcome.results
