type policy = {
  max_queries_per_peer : int option;
  min_result_size : int option;
  max_result_fraction : float option;
  max_input_overlap : float option;
}

let permissive =
  {
    max_queries_per_peer = None;
    min_result_size = None;
    max_result_fraction = None;
    max_input_overlap = None;
  }

let default_policy =
  {
    max_queries_per_peer = Some 100;
    min_result_size = Some 2;
    max_result_fraction = Some 0.5;
    max_input_overlap = Some 0.9;
  }

type decision = Allow | Deny of string

type entry = {
  seq : int;
  peer : string;
  operation : string;
  input_size : int;
  result_size : int option;
  decision : decision;
}

type t = {
  policy : policy;
  mutable entries : entry list; (* newest first *)
  inputs : (string, (string * Sset.t) list) Hashtbl.t;
      (* allowed (scope, input set) pairs per peer *)
}

let create policy = { policy; entries = []; inputs = Hashtbl.create 8 }
let log t = List.rev t.entries

let c_allow = Obs.Metrics.counter "audit.allow"
let c_deny = Obs.Metrics.counter "audit.deny"

let record_decision = function
  | Allow -> Obs.Metrics.incr c_allow
  | Deny _ -> Obs.Metrics.incr c_deny

let queries_from t ~peer =
  List.length
    (List.filter (fun e -> e.peer = peer && e.decision = Allow) t.entries)

let overlap_fraction new_set old_set =
  if Sset.is_empty new_set then 0.
  else
    float_of_int (Sset.cardinal (Sset.inter new_set old_set))
    /. float_of_int (Sset.cardinal new_set)

let check_query t ~peer ~operation ~scope ~input_values =
  let input = Sset.of_list input_values in
  let decision =
    match t.policy.max_queries_per_peer with
    | Some limit when queries_from t ~peer >= limit ->
        Deny (Printf.sprintf "query limit reached for peer %s (%d)" peer limit)
    | Some _ | None -> (
        match t.policy.max_input_overlap with
        | None -> Allow
        | Some max_frac -> (
            let previous = Option.value ~default:[] (Hashtbl.find_opt t.inputs peer) in
            (* An exact repeat (same input set, same scope) reveals
               nothing new and is allowed; the defence targets
               differencing probes: near-identical queries whose answers
               can be subtracted (Dobkin-Jones-Lipton). *)
            match
              List.find_opt
                (fun (old_scope, old) ->
                  (not (Sset.equal input old && String.equal scope old_scope))
                  && overlap_fraction input old > max_frac)
                previous
            with
            | Some (_, old) ->
                Deny
                  (Printf.sprintf
                     "input overlaps an earlier query from %s by %.0f%% (limit %.0f%%)" peer
                     (100. *. overlap_fraction input old)
                     (100. *. max_frac))
            | None -> Allow))
  in
  let entry =
    {
      seq = List.length t.entries;
      peer;
      operation;
      input_size = Sset.cardinal input;
      result_size = None;
      decision;
    }
  in
  t.entries <- entry :: t.entries;
  record_decision decision;
  (match decision with
  | Allow ->
      Hashtbl.replace t.inputs peer
        ((scope, input) :: Option.value ~default:[] (Hashtbl.find_opt t.inputs peer))
  | Deny _ -> ());
  decision

let check_result t ~peer ~result_size ~own_set_size =
  let decision =
    match t.policy.min_result_size with
    | Some m when result_size > 0 && result_size < m ->
        Deny (Printf.sprintf "result size %d below minimum %d" result_size m)
    | Some _ | None -> (
        match t.policy.max_result_fraction with
        | Some f
          when own_set_size > 0
               && float_of_int result_size /. float_of_int own_set_size > f ->
            Deny
              (Printf.sprintf "result reveals %.0f%% of own set (limit %.0f%%)"
                 (100. *. float_of_int result_size /. float_of_int own_set_size)
                 (100. *. f))
        | Some _ | None -> Allow)
  in
  (* Attach the result (and any release denial) to the latest allowed
     query from this peer, so the trail reflects the final outcome. *)
  let rec attach = function
    | [] -> []
    | e :: tl when e.peer = peer && e.result_size = None && e.decision = Allow ->
        { e with result_size = Some result_size; decision } :: tl
    | e :: tl -> e :: attach tl
  in
  t.entries <- attach t.entries;
  record_decision decision;
  decision
