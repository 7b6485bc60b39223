(* The one rule catalog. Everything that enumerates rules — the driver,
   --list-rules, the JSONL summary, the docs generator in
   tools/lint_selfcheck.sh — reads this module, so a new rule is added
   in exactly one place (its own rules_*.ml plus one line here). *)

let token_rules : Rule.t list =
  [
    Rules_ct.rule; Rules_rng.rule; Rules_exn.rule; Rules_exn.Err.rule; Rules_wire.rule;
    Rules_dbg.rule; Rules_dom.rule; Rules_obs.rule;
  ]

let sem_rules : Rule.sem list = [ Rules_sec.rule; Rules_ct2.rule; Rules_race.rule ]

(* The taint configuration the semantic phase runs with: SEC01 owns the
   sources/sanitizers/sinks, CT02 contributes the length-dependent
   calls whose arguments count as branch events. *)
let taint_spec : Taint.spec =
  {
    Taint.sources = Rules_sec.sources;
    sanitizers = Rules_sec.sanitizers;
    sinks = Rules_sec.sinks;
    branch_calls = Rules_ct2.length_calls;
  }

type entry = {
  e_id : string;
  e_summary : string;
  e_description : string;
  e_scope : string;
  e_kind : [ `Token | `Semantic ];
}

let entries : entry list =
  List.map
    (fun (r : Rule.t) ->
      {
        e_id = r.id;
        e_summary = r.summary;
        e_description = r.description;
        e_scope = r.scope;
        e_kind = `Token;
      })
    token_rules
  @ List.map
      (fun (s : Rule.sem) ->
        {
          e_id = s.s_id;
          e_summary = s.s_summary;
          e_description = s.s_description;
          e_scope = s.s_scope;
          e_kind = `Semantic;
        })
      sem_rules

let rule_ids = List.map (fun e -> e.e_id) entries
let find id = List.find_opt (fun e -> String.equal e.e_id id) entries
