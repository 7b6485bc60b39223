(* Inline suppression annotations and the checked-in baseline.

   Inline form, inside an ordinary comment:

     (* psi-lint: allow CT01 — compare is applied to public lengths *)
     (* psi-lint: allow CT01,DBG01 — reason covering both rules *)

   The annotation covers its own line and the line directly below it
   (so it can sit at the end of the offending line or alone above it).
   The justification after the dash is mandatory: an annotation without
   one is itself reported as an error, and so is a stale one that
   suppresses no finding.

   The baseline (tools/lint_baseline.txt) freezes pre-existing findings
   so that only *new* findings fail the build. One tab-separated entry
   per line:

     RULE<TAB>path<TAB>token#occurrence<TAB>justification

   The fingerprint is the matched token text plus its 1-based occurrence
   index among that file's findings for the same rule and token, which
   survives unrelated line drift. Stale entries (nothing matches) and
   entries whose justification is empty or still "TODO" are errors, so
   the baseline can only shrink or be consciously regenerated. *)

type annotation = { rules : string list; line : int; reason : string }

let marker = "psi-lint:"

(* Find [needle] in [hay] (tiny, no deps). *)
let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  go 0

let is_rule_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Split "CT01,DBG01" on commas. *)
let split_rules s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun r -> String.length r > 0)

(* Parse the text after the marker: "allow RULE[,RULE...] — reason". *)
let parse_body ~file ~line body =
  let body = String.trim body in
  let kw = "allow" in
  if not (String.length body >= String.length kw && String.equal (String.sub body 0 (String.length kw)) kw)
  then Error (Printf.sprintf "%s:%d: malformed psi-lint annotation: expected `allow RULE — reason`" file line)
  else begin
    let rest = String.trim (String.sub body (String.length kw) (String.length body - String.length kw)) in
    (* The rule list is the longest prefix of rule chars, commas, spaces. *)
    let n = String.length rest in
    let i = ref 0 in
    while !i < n && (is_rule_char rest.[!i] || rest.[!i] = ',' || rest.[!i] = ' ') do
      incr i
    done;
    let rules = split_rules (String.sub rest 0 !i) in
    let tail = String.sub rest !i (n - !i) in
    (* Strip the separator dash: "—" (U+2014), "--" or "-". *)
    let reason =
      let t = String.trim tail in
      let strip prefix s =
        let np = String.length prefix in
        if String.length s >= np && String.equal (String.sub s 0 np) prefix then
          Some (String.trim (String.sub s np (String.length s - np)))
        else None
      in
      match (strip "\xe2\x80\x94" t, strip "--" t, strip "-" t) with
      | Some r, _, _ | _, Some r, _ | _, _, Some r -> r
      | None, None, None -> t
    in
    if rules = [] then
      Error (Printf.sprintf "%s:%d: malformed psi-lint annotation: no rule ids" file line)
    else if String.length reason = 0 then
      Error
        (Printf.sprintf
           "%s:%d: psi-lint annotation for %s lacks a justification (`allow %s — why`)"
           file line (String.concat "," rules) (String.concat "," rules))
    else Ok { rules; line; reason }
  end

(* [scan ~file tokens] extracts annotations from comment tokens.
   Returns the well-formed annotations and the error messages for
   malformed ones. *)
let scan ~file tokens =
  List.fold_left
    (fun (anns, errs) (t : Tokens.token) ->
      match t.kind with
      | Tokens.Comment ->
          (* Only a comment that opens with the marker is an annotation;
             prose that mentions one is not. *)
          let body = String.trim (String.sub t.text 2 (String.length t.text - 2)) in
          if not (String.starts_with ~prefix:marker body) then (anns, errs)
          else begin
            let m = String.length marker in
            let after = String.sub body m (String.length body - m) in
            (* Drop the comment closer. *)
            let after =
              match find_sub after "*)" with
              | Some j -> String.sub after 0 j
              | None -> after
            in
            (* Anchor coverage at the comment's last line, so a
               multi-line justification still covers the next line. *)
            let end_line =
              t.line + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 t.text
            in
            match parse_body ~file ~line:end_line after with
            | Ok a -> (a :: anns, errs)
            | Error e -> (anns, e :: errs)
          end
      | _ -> (anns, errs))
    ([], []) tokens
  |> fun (anns, errs) -> (List.rev anns, List.rev errs)

(* [covering anns f] is the annotation covering finding [f], if any. *)
let covering anns (f : Rule.finding) =
  List.find_opt
    (fun a ->
      (a.line = f.line || a.line + 1 = f.line)
      && List.exists (String.equal f.rule) a.rules)
    anns

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

module Baseline = struct
  type entry = { rule : string; file : string; fingerprint : string; reason : string }

  type t = entry list

  let empty : t = []

  let parse text : (t, string) result =
    let entries = ref [] in
    let err = ref None in
    List.iteri
      (fun i line ->
        let line_no = i + 1 in
        let trimmed = String.trim line in
        if String.length trimmed = 0 || trimmed.[0] = '#' then ()
        else
          match String.split_on_char '\t' line with
          | [ rule; file; fingerprint; reason ] ->
              entries :=
                { rule; file; fingerprint; reason = String.trim reason } :: !entries
          | _ ->
              if !err = None then
                err :=
                  Some
                    (Printf.sprintf
                       "baseline line %d: expected RULE<TAB>file<TAB>fingerprint<TAB>reason"
                       line_no))
      (String.split_on_char '\n' text);
    match !err with Some e -> Error e | None -> Ok (List.rev !entries)

  let render (entries : t) =
    let header =
      "# psi_lint baseline — frozen pre-existing findings.\n\
       # One entry per line: RULE<TAB>file<TAB>token#occurrence<TAB>justification.\n\
       # New findings are NOT added here automatically; run\n\
       #   dune exec bin/psi_lint.exe -- --update-baseline\n\
       # and replace any TODO with a real justification.\n"
    in
    header
    ^ String.concat ""
        (List.map
           (fun e ->
             Printf.sprintf "%s\t%s\t%s\t%s\n" e.rule e.file e.fingerprint e.reason)
           entries)

  let todo_reason = "TODO"

  let is_explained (e : entry) =
    String.length e.reason > 0
    && not
         (String.length e.reason >= 4
         && String.equal (String.uppercase_ascii (String.sub e.reason 0 4)) todo_reason)
end
