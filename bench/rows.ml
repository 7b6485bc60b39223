(* BENCH.json: one row per measured number, under one box-profile
   header, and the generic differ the bench gate runs over it.

   A row is [{scenario, layer, metric, value, unit, gate?}]. The gate
   says how a fresh value may differ from the committed one:
   - [Exact]: deterministic counts (Ce, wire bits, lint counts) must
     match on any box;
   - [Floor]: a throughput must stay above committed / slack;
   - [Ceiling]: a wall time must stay below committed * slack.
   Floor and ceiling rows describe the box they were taken on, so they
   are compared only when the committed core count matches this box. *)

module Json = Obs.Export.Json

type gate = Exact | Floor | Ceiling

type row = {
  scenario : string;
  layer : string;
  metric : string;
  value : float;
  unit : string;
  gate : gate option;
}

let key r = String.concat "/" [ r.scenario; r.layer; r.metric ]
let gates = [ ("exact", Exact); ("floor", Floor); ("ceiling", Ceiling) ]
let gate_name g = fst (List.find (fun (_, g') -> g' = g) gates)

let to_json r =
  Json.Obj
    ([
       ("scenario", Json.Str r.scenario);
       ("layer", Json.Str r.layer);
       ("metric", Json.Str r.metric);
       ("value", Json.of_float r.value);
       ("unit", Json.Str r.unit);
     ]
    @ match r.gate with Some g -> [ ("gate", Json.Str (gate_name g)) ] | None -> [])

let of_json j =
  let need what = function
    | Some v -> v
    | None -> raise (Json.Parse_error ("row lacks a valid " ^ what))
  in
  let str f = need f (Option.bind (Json.member f j) Json.to_str) in
  {
    scenario = str "scenario";
    layer = str "layer";
    metric = str "metric";
    value = need "value" (Option.bind (Json.member "value" j) Json.to_f);
    unit = str "unit";
    gate =
      Option.map
        (fun g -> need "gate" (List.assoc_opt g gates))
        (Option.bind (Json.member "gate" j) Json.to_str);
  }

(* The whole file: the box profile, then the rows. *)
let document rows =
  Json.Obj (Obs.Export.box_profile () @ [ ("rows", Json.Arr (List.map to_json rows)) ])

(* [parse text] is the committed header (as JSON) and its rows.
   @raise Json.Parse_error on a malformed file. *)
let parse text =
  let j = Json.of_string text in
  match Json.member "rows" j with
  | Some (Json.Arr rows) -> (j, List.map of_json rows)
  | _ -> raise (Json.Parse_error "no rows array")

(* ------------------------------------------------------------------ *)
(* The differ                                                          *)
(* ------------------------------------------------------------------ *)

type outcome = Pass | Fail | Skip

type check = {
  row : string;  (** the committed row's key *)
  outcome : outcome;
  timed : bool;  (** a floor or ceiling row that was actually compared *)
  detail : string;
}

(* [diff ~slack ~inject ~same_box ~committed ~fresh] checks every gated
   committed row against the fresh row with the same key. [inject]
   divides fresh floors and multiplies fresh ceilings, simulating an
   [inject]x slowdown; [same_box] says the committed core count is this
   box's. Pure: the caller measures and reports. *)
let diff ~slack ~inject ~same_box ~committed ~fresh =
  List.filter_map
    (fun c ->
      Option.map
        (fun g ->
          let check ?(timed = false) outcome detail =
            { row = key c; outcome; timed; detail }
          in
          match (List.find_opt (fun f -> String.equal (key f) (key c)) fresh, g) with
          | None, _ -> check Fail "gated row has no fresh measurement"
          | Some f, Exact ->
              check
                (if Float.equal f.value c.value then Pass else Fail)
                (Printf.sprintf "%g = %g committed (exact)" f.value c.value)
          | Some _, (Floor | Ceiling) when not same_box ->
              check Skip "committed on a box with another core count"
          | Some f, Floor ->
              let v = f.value /. inject and bound = c.value /. slack in
              check ~timed:true
                (if v >= bound then Pass else Fail)
                (Printf.sprintf "%g >= %g %s (committed %g / slack %g)" v bound c.unit
                   c.value slack)
          | Some f, Ceiling ->
              let v = f.value *. inject and bound = c.value *. slack in
              check ~timed:true
                (if v <= bound then Pass else Fail)
                (Printf.sprintf "%g <= %g %s (committed %g * slack %g)" v bound c.unit
                   c.value slack))
        c.gate)
    committed

(* [self_test ~slack fresh] shows the gate would trip on a real
   regression without measuring twice: the fresh readings become their
   own baseline, a 2x slowdown is injected into them, and every floor
   and ceiling row must then fail. One check per such row, passing when
   the injected comparison failed; with no such row, one failing
   check. *)
let self_test ~slack fresh =
  let injected =
    List.filter (fun c -> c.timed)
      (diff ~slack ~inject:2. ~same_box:true ~committed:fresh ~fresh)
  in
  if injected = [] then
    [
      {
        row = "self-test";
        outcome = Fail;
        timed = false;
        detail = "no floor or ceiling row to inject a slowdown into";
      };
    ]
  else
    List.map
      (fun c ->
        {
          row = "self-test/" ^ c.row;
          outcome = (match c.outcome with Fail -> Pass | Pass | Skip -> Fail);
          timed = false;
          detail = "injected 2x must fail: " ^ c.detail;
        })
      injected
