(* Interprocedural forward taint over the simplified AST.

   The abstract value of an expression is a set of taint elements:
   [Src s] — the value may derive from a configured source [s] (a
   canonical path, see [Resolve]); [Param i] — the value may derive
   from parameter [i] of the definition currently being analyzed.

   Each definition is evaluated with its parameters bound to [Param i]
   tokens; the places where a parameter reaches a sink or a branching
   construct become the definition's *summary*, and call sites replay
   the summary against the actual argument taints. Summaries are
   iterated to a fixpoint so taint flows through arbitrarily long call
   chains. Explicit flows only: the result of [if secret then a else b]
   is the union of the branch results, not the condition — the
   condition itself is what CT02 reports.

   Sanitizers cut flows structurally: an application whose head matches
   a sanitizer pattern returns the empty taint no matter what went in.
   Common higher-order mappers ([List.map], [Pool.map], ...) are
   modeled so that mapping a sanitizer over a secret collection yields
   a clean collection, while mapping anything else propagates the
   element taint through the closure body. *)

type elt = Src of string | Param of int

module TS = Set.Make (struct
  type t = elt

  let compare (a : elt) (b : elt) =
    match (a, b) with
    | Src x, Src y -> String.compare x y
    | Param x, Param y -> Int.compare x y
    | Src _, Param _ -> -1
    | Param _, Src _ -> 1
end)

type spec = {
  sources : string list; (* '*' globs over canonical paths *)
  sanitizers : string list;
  sinks : string list;
  branch_calls : string list; (* length-dependent calls, e.g. String.length *)
}

type event = {
  ev_kind : [ `Sink of string | `Branch of string ];
      (* [`Sink name]: tainted value reaches sink [name].
         [`Branch kind]: tainted value controls an [if]/[match]
         scrutinee, guard, loop bound, or length-dependent call. *)
  ev_via : string option; (* callee whose summary fired, if indirect *)
  ev_def : string; (* definition being analyzed when recorded *)
  ev_file : string;
  ev_pos : Ast.pos;
  ev_taint : TS.t;
}

type summary = {
  returns : TS.t;
  sink_params : (int * string) list; (* param reaches sink inside def *)
  branch_params : (int * string) list; (* param reaches branch inside def *)
}

type result = {
  events : event list; (* deterministic order; includes Param-only events *)
  summaries : (string, summary) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Glob matching on canonical paths                                    *)
(* ------------------------------------------------------------------ *)

let glob pat s =
  let np = String.length pat and ns = String.length s in
  (* backtracking wildcard match; patterns are tiny *)
  let rec go p i =
    if p = np then i = ns
    else if pat.[p] = '*' then
      let rec try_at j = if go (p + 1) j then true else j < ns && try_at (j + 1) in
      try_at i
    else i < ns && Char.equal pat.[p] s.[i] && go (p + 1) (i + 1)
  in
  go 0 0

let matches pats s = List.exists (fun p -> glob p s) pats

let concrete taint =
  TS.fold (fun e acc -> match e with Src s -> s :: acc | Param _ -> acc) taint []
  |> List.rev

let params_of taint =
  TS.fold (fun e acc -> match e with Param i -> i :: acc | Src _ -> acc) taint []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Higher-order mappers                                                *)
(* ------------------------------------------------------------------ *)

(* canonical name -> (function-argument positions, data-argument positions)
   among the Nolabel arguments. The result of the call is the union of
   the closure results applied to the data taint. *)
let hofs =
  [
    ("List.map", ([ 0 ], [ 1 ]));
    ("List.rev_map", ([ 0 ], [ 1 ]));
    ("List.concat_map", ([ 0 ], [ 1 ]));
    ("List.filter_map", ([ 0 ], [ 1 ]));
    ("List.mapi", ([ 0 ], [ 1 ]));
    ("List.iter", ([ 0 ], [ 1 ]));
    ("List.fold_left", ([ 0 ], [ 1; 2 ]));
    ("Array.map", ([ 0 ], [ 1 ]));
    ("Array.iter", ([ 0 ], [ 1 ]));
    ("Array.mapi", ([ 0 ], [ 1 ]));
    ("Seq.map", ([ 0 ], [ 1 ]));
    (* Pool.map t f xs / Pool.map_chunks t f xs: among the unlabeled
       arguments the closure is index 1, the data index 2 *)
    ("Pool.map", ([ 1 ], [ 2 ]));
    ("Pool.map_chunks", ([ 1 ], [ 2 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  spec : spec;
  resolver : Resolve.t;
  summaries : (string, summary) Hashtbl.t;
  mutable events : event list; (* reverse order *)
  mutable cur_def : string;
  mutable cur_file : string;
  mutable cur_unit : Resolve.unit_;
  env : (string, TS.t) Hashtbl.t;
  mutable opens : Ast.path list;
}

let emit ctx ev_kind ~via ~pos taint =
  if not (TS.is_empty taint) then
    ctx.events <-
      {
        ev_kind;
        ev_via = via;
        ev_def = ctx.cur_def;
        ev_file = ctx.cur_file;
        ev_pos = pos;
        ev_taint = taint;
      }
      :: ctx.events

let with_binds ctx binds f =
  let saved = List.map (fun (k, _) -> (k, Hashtbl.find_opt ctx.env k)) binds in
  List.iter (fun (k, v) -> Hashtbl.replace ctx.env k v) binds;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, old) ->
          match old with
          | Some v -> Hashtbl.replace ctx.env k v
          | None -> Hashtbl.remove ctx.env k)
        saved)
    f

let bind_pat_taint pat taint = List.map (fun (v, _) -> (v, taint)) (Ast.bound_vars pat)

let resolve ctx path = Resolve.resolve_path ctx.resolver ctx.cur_unit ~opens:ctx.opens path

let summary_returns ctx canon =
  match Hashtbl.find_opt ctx.summaries canon with
  | None -> TS.empty
  | Some s -> TS.filter (function Src _ -> true | Param _ -> false) s.returns

(* Match call arguments to parameter indices: labeled arguments by
   label, the rest positionally against the unlabeled parameters. *)
let match_args (params : Ast.param list) (args : (Ast.arg_label * TS.t) list) :
    (int * TS.t) list =
  let indexed = List.mapi (fun i p -> (i, p)) params in
  let label_of (p : Ast.param) =
    match p.Ast.label with
    | Ast.Labelled l | Ast.Optional l -> Some l
    | Ast.Nolabel -> None
  in
  let positional_params =
    List.filter_map (fun (i, p) -> if label_of p = None then Some i else None) indexed
  in
  let next_pos = ref positional_params in
  List.filter_map
    (fun (lbl, t) ->
      match lbl with
      | Ast.Labelled l | Ast.Optional l -> (
          match
            List.find_opt (fun (_, p) -> label_of p = Some l) indexed
          with
          | Some (i, _) -> Some (i, t)
          | None -> None)
      | Ast.Nolabel -> (
          match !next_pos with
          | i :: rest ->
              next_pos := rest;
              Some (i, t)
          | [] -> None))
    args

(* An argument in a call being (re)played: either a source expression
   or an already-computed taint (used when replaying HOF closures). *)
type aarg = Aexpr of Ast.expr | Ataint of TS.t

let rec eval ctx (e : Ast.expr) : TS.t =
  match e.Ast.desc with
  | Ast.Const _ | Ast.Pack _ -> TS.empty
  | Ast.Var [ v ] -> (
      match Hashtbl.find_opt ctx.env v with
      | Some t -> t
      | None ->
          let canon = resolve ctx [ v ] in
          summary_returns ctx canon)
  | Ast.Var p ->
      let canon = resolve ctx p in
      summary_returns ctx canon
  | Ast.Apply (head, args) ->
      eval_apply ctx e.Ast.pos head (List.map (fun (l, a) -> (l, Aexpr a)) args)
  | Ast.Construct (_, None) -> TS.empty
  | Ast.Construct (_, Some arg) -> eval ctx arg
  | Ast.Tuple es | Ast.List_lit es | Ast.Array_lit es ->
      List.fold_left (fun acc e -> TS.union acc (eval ctx e)) TS.empty es
  | Ast.Record (fields, base) ->
      let b = match base with None -> TS.empty | Some e -> eval ctx e in
      List.fold_left (fun acc (_, e) -> TS.union acc (eval ctx e)) b fields
  | Ast.Field (e, _) -> eval ctx e
  | Ast.Index_get (e, idx) ->
      let t = eval ctx e in
      ignore (eval ctx idx);
      t
  | Ast.Index_set (tgt, idx, rhs) ->
      ignore (eval ctx idx);
      let tr = eval ctx rhs in
      mutate ctx tgt tr;
      TS.empty
  | Ast.Setfield (tgt, _, rhs) ->
      let tr = eval ctx rhs in
      mutate ctx tgt tr;
      TS.empty
  | Ast.Sequence (a, b) ->
      ignore (eval ctx a);
      eval ctx b
  | Ast.Let { recursive = _; bindings; body } ->
      let binds =
        List.concat_map
          (fun (b : Ast.binding) ->
            if b.Ast.b_params = [] then bind_pat_taint b.Ast.b_pat (eval ctx b.Ast.b_body)
            else begin
              (* local function: surface events inside with clean
                 params; its value carries its result taint *)
              let params =
                List.concat_map
                  (fun (p : Ast.param) -> bind_pat_taint p.Ast.pat TS.empty)
                  b.Ast.b_params
              in
              let t = with_binds ctx params (fun () -> eval ctx b.Ast.b_body) in
              bind_pat_taint b.Ast.b_pat t
            end)
          bindings
      in
      with_binds ctx binds (fun () -> eval ctx body)
  | Ast.Fun (params, body) ->
      (* closure literal in value position: analyze with clean params;
         the closure's value taint is its result taint *)
      let binds =
        List.concat_map (fun (p : Ast.param) -> bind_pat_taint p.Ast.pat TS.empty) params
      in
      with_binds ctx binds (fun () -> eval ctx body)
  | Ast.Function cases -> eval_cases ctx TS.empty cases
  | Ast.If (cond, a, b) ->
      let tc = eval ctx cond in
      emit ctx (`Branch "if condition") ~via:None ~pos:cond.Ast.pos tc;
      let ta = eval ctx a in
      let tb = match b with None -> TS.empty | Some b -> eval ctx b in
      TS.union ta tb
  | Ast.Match (scrut, cases) ->
      let ts = eval ctx scrut in
      emit ctx (`Branch "match scrutinee") ~via:None ~pos:scrut.Ast.pos ts;
      eval_cases ctx ts cases
  | Ast.Try (body, cases) ->
      let tb = eval ctx body in
      TS.union tb (eval_cases ctx TS.empty cases)
  | Ast.While (cond, body) ->
      let tc = eval ctx cond in
      emit ctx (`Branch "loop bound") ~via:None ~pos:cond.Ast.pos tc;
      ignore (eval ctx body);
      TS.empty
  | Ast.For { var; from_; to_; body; _ } ->
      let tf = eval ctx from_ and tt = eval ctx to_ in
      emit ctx (`Branch "loop bound") ~via:None ~pos:from_.Ast.pos (TS.union tf tt);
      with_binds ctx [ (var, TS.empty) ] (fun () -> ignore (eval ctx body));
      TS.empty
  | Ast.Letopen (p, body) ->
      let saved = ctx.opens in
      ctx.opens <- p :: ctx.opens;
      Fun.protect ~finally:(fun () -> ctx.opens <- saved) (fun () -> eval ctx body)
  | Ast.Letmodule (_, _, body) -> eval ctx body
  | Ast.Lazy_ e | Ast.Assert e -> eval ctx e

and eval_cases ctx scrut_taint cases =
  List.fold_left
    (fun acc (c : Ast.case) ->
      with_binds ctx (bind_pat_taint c.Ast.lhs scrut_taint) (fun () ->
          (match c.Ast.guard with
          | Some g ->
              let tg = eval ctx g in
              emit ctx (`Branch "match guard") ~via:None ~pos:g.Ast.pos tg
          | None -> ());
          TS.union acc (eval ctx c.Ast.rhs)))
    TS.empty cases

(* [r := v] / [h.field <- v] / [a.(i) <- v]: if the target is a local
   variable, its abstract value absorbs the new taint. *)
and mutate ctx (tgt : Ast.expr) taint =
  match tgt.Ast.desc with
  | Ast.Var [ v ] when Hashtbl.mem ctx.env v ->
      Hashtbl.replace ctx.env v (TS.union (Hashtbl.find ctx.env v) taint)
  | Ast.Field (b, _) | Ast.Index_get (b, _) -> mutate ctx b taint
  | _ -> ignore (eval ctx tgt)

and eval_aarg ctx = function Aexpr e -> eval ctx e | Ataint t -> t

(* Apply a function-position value [fv] (a closure literal, a named
   function, or a partial application) to pre-computed taints. *)
and apply_value ctx pos (fv : aarg) (data : TS.t) : TS.t =
  match fv with
  | Ataint t -> TS.union t data
  | Aexpr f -> (
      match f.Ast.desc with
      | Ast.Fun (params, body) ->
          let binds =
            List.concat_map (fun (p : Ast.param) -> bind_pat_taint p.Ast.pat data) params
          in
          with_binds ctx binds (fun () -> eval ctx body)
      | Ast.Function cases -> eval_cases ctx data cases
      | Ast.Var _ -> eval_apply ctx pos f [ (Ast.Nolabel, Ataint data) ]
      | Ast.Apply (h, args0) ->
          eval_apply ctx pos h
            (List.map (fun (l, a) -> (l, Aexpr a)) args0 @ [ (Ast.Nolabel, Ataint data) ])
      | _ -> TS.union (eval ctx f) data)

and eval_apply ctx pos (head : Ast.expr) (args : (Ast.arg_label * aarg) list) : TS.t =
  let canon =
    match head.Ast.desc with Ast.Var p -> Some (resolve ctx p) | _ -> None
  in
  match canon with
  | Some ":=" -> (
      match args with
      | [ (_, Aexpr tgt); (_, rhs) ] ->
          let tr = eval_aarg ctx rhs in
          mutate ctx tgt tr;
          TS.empty
      | _ ->
          List.iter (fun (_, a) -> ignore (eval_aarg ctx a)) args;
          TS.empty)
  | Some c when matches ctx.spec.sanitizers c ->
      (* arguments still evaluated: events inside them are kept, but
         the result is clean *)
      List.iter (fun (_, a) -> ignore (eval_aarg ctx a)) args;
      TS.empty
  | Some c when matches ctx.spec.sources c ->
      List.iter (fun (_, a) -> ignore (eval_aarg ctx a)) args;
      TS.singleton (Src c)
  | Some c when matches ctx.spec.sinks c ->
      List.iter
        (fun (_, a) ->
          let t = eval_aarg ctx a in
          emit ctx (`Sink c) ~via:None ~pos t)
        args;
      TS.empty
  | Some c when List.mem_assoc c hofs ->
      let fn_idxs, data_idxs = List.assoc c hofs in
      let unlabeled = List.filter (fun (l, _) -> l = Ast.Nolabel) args in
      let labeled = List.filter (fun (l, _) -> l <> Ast.Nolabel) args in
      (* labeled args (e.g. Pool.map ~chunk) just propagate *)
      let extra =
        List.fold_left (fun acc (_, a) -> TS.union acc (eval_aarg ctx a)) TS.empty labeled
      in
      let data =
        List.fold_left
          (fun acc i ->
            match List.nth_opt unlabeled i with
            | Some (_, a) -> TS.union acc (eval_aarg ctx a)
            | None -> acc)
          TS.empty data_idxs
      in
      let applied =
        List.fold_left
          (fun acc i ->
            match List.nth_opt unlabeled i with
            | Some (_, fv) -> TS.union acc (apply_value ctx pos fv data)
            | None -> acc)
          TS.empty fn_idxs
      in
      (* non-function, non-data positionals (e.g. the pool handle) *)
      let rest =
        List.fold_left
          (fun (i, acc) (_, a) ->
            let acc =
              if List.mem i fn_idxs || List.mem i data_idxs then acc
              else TS.union acc (eval_aarg ctx a)
            in
            (i + 1, acc))
          (0, TS.empty) unlabeled
        |> snd
      in
      TS.union applied (TS.union extra rest)
  | Some c when Hashtbl.mem ctx.summaries c ->
      let s = Hashtbl.find ctx.summaries c in
      let d = Resolve.find_def ctx.resolver c in
      let arg_taints = List.map (fun (l, a) -> (l, eval_aarg ctx a)) args in
      let by_param =
        match d with
        | Some d -> match_args d.Resolve.params arg_taints
        | None -> List.mapi (fun i (_, t) -> (i, t)) arg_taints
      in
      let taint_of_param i =
        match List.assoc_opt i by_param with Some t -> t | None -> TS.empty
      in
      List.iter
        (fun (i, sink) ->
          emit ctx (`Sink sink) ~via:(Some c) ~pos (taint_of_param i))
        s.sink_params;
      List.iter
        (fun (i, kind) ->
          emit ctx (`Branch kind) ~via:(Some c) ~pos (taint_of_param i))
        s.branch_params;
      TS.fold
        (fun e acc ->
          match e with
          | Src _ -> TS.add e acc
          | Param i -> TS.union acc (taint_of_param i))
        s.returns TS.empty
  | _ ->
      (* external or locally-bound head: evaluate everything and
         propagate the union; closure literals see the other args *)
      let head_t = eval ctx head in
      let closures, plain =
        List.partition
          (fun (_, a) ->
            match a with
            | Aexpr { Ast.desc = Ast.Fun _ | Ast.Function _; _ } -> true
            | _ -> false)
          args
      in
      let plain_t =
        List.fold_left (fun acc (_, a) -> TS.union acc (eval_aarg ctx a)) TS.empty plain
      in
      let closure_t =
        List.fold_left
          (fun acc (_, fv) -> TS.union acc (apply_value ctx pos fv plain_t))
          TS.empty closures
      in
      let t = TS.union head_t (TS.union plain_t closure_t) in
      (match canon with
      | Some c when matches ctx.spec.branch_calls c ->
          emit ctx (`Branch ("length-dependent call " ^ c)) ~via:None ~pos
            (TS.union plain_t closure_t)
      | _ -> ());
      t

(* ------------------------------------------------------------------ *)
(* Per-definition analysis and the fixpoint                            *)
(* ------------------------------------------------------------------ *)

let eval_def ctx (d : Resolve.def) : summary * event list =
  ctx.cur_def <- d.Resolve.name;
  ctx.cur_file <- d.Resolve.unit_path;
  ctx.cur_unit <- Resolve.unit_of_def ctx.resolver d;
  ctx.opens <- [];
  ctx.events <- [];
  Hashtbl.reset ctx.env;
  let binds =
    List.concat_map
      (fun (i, (p : Ast.param)) -> bind_pat_taint p.Ast.pat (TS.singleton (Param i)))
      (List.mapi (fun i p -> (i, p)) d.Resolve.params)
  in
  List.iter (fun (k, v) -> Hashtbl.replace ctx.env k v) binds;
  let returns = eval ctx d.Resolve.binding.Ast.b_body in
  let events = List.rev ctx.events in
  let dedup l = List.sort_uniq compare l in
  let sink_params =
    dedup
      (List.concat_map
         (fun ev ->
           match ev.ev_kind with
           | `Sink s -> List.map (fun i -> (i, s)) (params_of ev.ev_taint)
           | `Branch _ -> [])
         events)
  in
  let branch_params =
    dedup
      (List.concat_map
         (fun ev ->
           match ev.ev_kind with
           | `Branch k -> List.map (fun i -> (i, k)) (params_of ev.ev_taint)
           | `Sink _ -> [])
         events)
  in
  ({ returns; sink_params; branch_params }, events)

let summary_equal a b =
  TS.equal a.returns b.returns
  && a.sink_params = b.sink_params
  && a.branch_params = b.branch_params

let analyze ~spec (resolver : Resolve.t) : result =
  let summaries = Hashtbl.create 256 in
  let dummy_unit =
    match resolver.Resolve.units with
    | u :: _ -> u
    | [] -> { Resolve.path = ""; modname = ""; structure = [] }
  in
  let ctx =
    {
      spec;
      resolver;
      summaries;
      events = [];
      cur_def = "";
      cur_file = "";
      cur_unit = dummy_unit;
      env = Hashtbl.create 64;
      opens = [];
    }
  in
  let defs =
    List.filter_map (Resolve.find_def resolver) resolver.Resolve.def_order
  in
  let all_events = ref [] in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 12 do
    incr rounds;
    changed := false;
    all_events := [];
    List.iter
      (fun d ->
        let s, evs = eval_def ctx d in
        all_events := evs :: !all_events;
        (match Hashtbl.find_opt summaries d.Resolve.name with
        | Some old when summary_equal old s -> ()
        | _ -> changed := true);
        Hashtbl.replace summaries d.Resolve.name s)
      defs
  done;
  { events = List.concat (List.rev !all_events); summaries }
