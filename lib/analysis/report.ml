(* Rendering: a human console report and machine-readable JSON in the
   lib/obs JSONL conventions (a versioned header object first — the
   trace-header pattern from Obs.Export — then one object per finding,
   a summary object last). This module only builds strings/formatters —
   the binary owns the channels. *)

module Json = Obs.Export.Json

(* Bump when the shape of the header/summary objects changes;
   tools/lint_selfcheck.sh checks it. *)
let json_version = 1

let status_label = function
  | `New -> "new"
  | `Baselined _ -> "baselined"
  | `Suppressed _ -> "suppressed"

(* Count per rule as (rule, new, baselined, suppressed), in rule order. *)
let tally (o : Driver.outcome) =
  List.map
    (fun id ->
      let count p =
        List.length
          (List.filter
             (fun (c : Driver.classified) ->
               String.equal c.finding.Rule.rule id && p c.status)
             o.results)
      in
      ( id,
        count (function `New -> true | _ -> false),
        count (function `Baselined _ -> true | _ -> false),
        count (function `Suppressed _ -> true | _ -> false) ))
    Registry.rule_ids

let pp_console fmt (o : Driver.outcome) =
  let newf = Driver.new_findings o in
  List.iter
    (fun (f : Rule.finding) ->
      Format.fprintf fmt "%s:%d:%d: [%s] %s@\n" f.file f.line f.col f.rule f.message)
    newf;
  List.iter (fun e -> Format.fprintf fmt "error: %s@\n" e) o.errors;
  Format.fprintf fmt "psi_lint: %d file%s scanned@\n" o.files_scanned
    (if o.files_scanned = 1 then "" else "s");
  List.iter
    (fun (id, n, b, s) ->
      if n + b + s > 0 then
        Format.fprintf fmt "  %s: %d new, %d baselined, %d suppressed@\n" id n b s)
    (tally o);
  if Driver.clean o then Format.fprintf fmt "psi_lint: clean@\n"
  else
    Format.fprintf fmt "psi_lint: FAILED (%d new finding%s, %d error%s)@\n"
      (List.length newf)
      (if List.length newf = 1 then "" else "s")
      (List.length o.errors)
      (if List.length o.errors = 1 then "" else "s")

let kind_label = function `Token -> "token" | `Semantic -> "semantic"

(* First JSONL line: tool identity, schema version, and the rule
   catalog (id/summary/description/scope straight from Registry) so a
   report is self-describing. *)
let header_json () =
  Json.Obj
    [
      ("type", Json.Str "lint_header");
      ("version", Json.of_int json_version);
      ("tool", Json.Str "psi_lint");
      ( "rules",
        Json.Arr
          (List.map
             (fun (e : Registry.entry) ->
               Json.Obj
                 [
                   ("id", Json.Str e.Registry.e_id);
                   ("kind", Json.Str (kind_label e.Registry.e_kind));
                   ("scope", Json.Str e.Registry.e_scope);
                   ("summary", Json.Str e.Registry.e_summary);
                   ("description", Json.Str e.Registry.e_description);
                 ])
             Registry.entries) );
    ]

let json_of_classified (c : Driver.classified) =
  let f = c.finding in
  Json.Obj
    ([
       ("type", Json.Str "finding");
       ("rule", Json.Str f.Rule.rule);
       ("file", Json.Str f.Rule.file);
       ("line", Json.of_int f.Rule.line);
       ("col", Json.of_int f.Rule.col);
       ("token", Json.Str f.Rule.token);
       ("fingerprint", Json.Str c.fingerprint);
       ("status", Json.Str (status_label c.status));
       ("message", Json.Str f.Rule.message);
     ]
    @
    match c.status with
    | `Baselined reason | `Suppressed reason -> [ ("reason", Json.Str reason) ]
    | `New -> [])

let ms dt = Json.Num (Printf.sprintf "%.3f" dt)

let phases_json (o : Driver.outcome) =
  Json.Obj (List.map (fun (name, dt) -> (name, ms dt)) o.Driver.phases)

let rules_json (o : Driver.outcome) =
  Json.Obj
    (List.map
       (fun (id, n, b, s) ->
         let ms_field =
           match List.assoc_opt id o.Driver.rule_ms with
           | Some dt -> [ ("ms", ms dt) ]
           | None -> []
         in
         ( id,
           Json.Obj
             ([
                ("new", Json.of_int n);
                ("baselined", Json.of_int b);
                ("suppressed", Json.of_int s);
              ]
             @ ms_field) ))
       (tally o))

let summary_json (o : Driver.outcome) =
  Json.Obj
    [
      ("type", Json.Str "summary");
      ("version", Json.of_int json_version);
      ("tool", Json.Str "psi_lint");
      ("files_scanned", Json.of_int o.files_scanned);
      ("rules", rules_json o);
      ("phases", phases_json o);
      ("errors", Json.of_int (List.length o.errors));
      ("clean", Json.Bool (Driver.clean o));
    ]

(* JSONL: header first, one finding object per line, summary last. *)
let jsonl (o : Driver.outcome) =
  Json.to_string (header_json ()) ^ "\n"
  ^ String.concat ""
      (List.map (fun c -> Json.to_string (json_of_classified c) ^ "\n") o.results)
  ^ Json.to_string (summary_json o)
  ^ "\n"
