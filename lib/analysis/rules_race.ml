(* RACE01 — mutable state captured by closures handed to the domain
   pool must be mediated by Atomic or Mutex.

   [Pool.map]/[Pool.map_chunks], [Pool.fork] and [Domain.spawn] run
   their closures on other domains, and so do the party runners
   [Runner.run]/[Runner.run_on]/[Protocol.launch] with
   their [~sender] (through [Pool.fork], concurrently with the receiver
   on the caller's thread). A captured [ref], [Hashtbl], [Buffer],
   [Queue] or [Stack] — or any in-place mutation of a captured variable
   ([:=], [<-], [Hashtbl.replace], [Buffer.add_*], [a.(i) <- v], or a
   call to a function of the same file that writes a field or element
   of its first argument) — is a data race unless every access goes
   through [Atomic] or a [Mutex]. A closure handed over as a partial
   application of a local function ([~sender:(play `Sender)]) is
   checked as that function's body. The check is structural, not a
   dynamic race detector: a closure that mentions [Atomic.*] or
   [Mutex.*] anywhere is assumed mediated (the fixture corpus pins the
   judgment; genuine handoffs that mediate elsewhere are suppressed
   inline with a reason). Reads of shared immutable structures (lookup
   tables, read-only contexts) are not flagged: only capture of the
   known mutable constructors above, or a mutating operation on any
   captured variable. *)

let id = "RACE01"

let spawners =
  [ "Pool.map"; "Pool.map_chunks"; "Pool.fork"; "Domain.spawn" ]

(* Party runners: only the [~sender] closure leaves the caller's thread. *)
let party_runners = [ "Runner.run"; "Runner.run_on"; "Protocol.launch" ]

let handed_off canon (label : Ast.arg_label) =
  List.mem canon spawners
  || (List.mem canon party_runners && label = Ast.Labelled "sender")

(* Constructors whose result is mutable by design: capturing one of
   these in a pool closure is flagged even without a visible write. *)
let mutable_ctors =
  [ "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create" ]

(* Calls that mutate their (first) argument in place. *)
let mutating_calls =
  [
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset"; "Hashtbl.clear";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes"; "Buffer.add_subbytes";
    "Buffer.clear"; "Buffer.reset"; "Queue.push"; "Queue.add"; "Queue.pop"; "Queue.take";
    "Stack.push"; "Stack.pop"; "Bytes.set"; "Bytes.blit"; "Bytes.fill"; "Array.fill";
    "Array.blit";
  ]

module SS = Resolve.SS

(* Does the closure body mention Atomic.* or Mutex.* anywhere? *)
let mentions_mediation (e : Ast.expr) =
  let found = ref false in
  let rec go (e : Ast.expr) =
    (match e.Ast.desc with
    | Ast.Var (("Atomic" | "Mutex") :: _) -> found := true
    | Ast.Letopen (("Atomic" | "Mutex") :: _, _) -> found := true
    | _ -> ());
    if not !found then Ast.iter_children go e
  in
  go e;
  !found

(* Root variable of a mutation target: [x.field], [x.(i)], [!x]. *)
let rec root_var (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Var [ v ] -> Some v
  | Ast.Field (b, _) | Ast.Index_get (b, _) -> root_var b
  | _ -> None

(* Does [body] write a field or element of [v] directly? *)
let writes_to v (body : Ast.expr) =
  let found = ref false in
  let hit tgt = if root_var tgt = Some v then found := true in
  let rec go (e : Ast.expr) =
    (match e.Ast.desc with
    | Ast.Setfield (tgt, _, _) | Ast.Index_set (tgt, _, _) -> hit tgt
    | Ast.Apply ({ Ast.desc = Ast.Var [ ":=" ]; _ }, (_, tgt) :: _) -> hit tgt
    | Ast.Apply ({ Ast.desc = Ast.Var path; _ }, (_, first) :: _)
      when List.mem (String.concat "." path) mutating_calls ->
        hit first
    | _ -> ());
    if not !found then Ast.iter_children go e
  in
  go body;
  !found

(* Canonical names of the definitions that mutate their first
   (positional) parameter in place, like [add_ops dst src], without
   mediating it themselves. *)
let mutators (r : Resolve.t) =
  Hashtbl.fold
    (fun name (d : Resolve.def) acc ->
      let body = d.Resolve.binding.Ast.b_body in
      match d.Resolve.params with
      | { Ast.label = Ast.Nolabel; pat = Ast.Pvar (v, _); _ } :: _
        when writes_to v body && not (mentions_mediation body) ->
          SS.add name acc
      | _ -> acc)
    r.Resolve.defs SS.empty

(* Mutations inside a closure body whose target is one of [captured]:
   returns (var, pos, what) triples. [mutator] names the function a
   call goes to when that function mutates its first argument. *)
let mutations_of ~mutator ~captured (body : Ast.expr) =
  let acc = ref [] in
  let note v pos what = if SS.mem v captured then acc := (v, pos, what) :: !acc in
  let rec go (e : Ast.expr) =
    (match e.Ast.desc with
    | Ast.Setfield (tgt, _, _) -> (
        match root_var tgt with
        | Some v -> note v e.Ast.pos "mutable-field write"
        | None -> ())
    | Ast.Index_set (tgt, _, _) -> (
        match root_var tgt with
        | Some v -> note v e.Ast.pos "in-place array/string write"
        | None -> ())
    | Ast.Apply ({ Ast.desc = Ast.Var [ ":=" ]; _ }, (_, tgt) :: _) -> (
        match root_var tgt with
        | Some v -> note v e.Ast.pos "ref assignment"
        | None -> ())
    | Ast.Apply ({ Ast.desc = Ast.Var path; _ }, (_, first) :: _)
      when List.mem (String.concat "." path) mutating_calls -> (
        match root_var first with
        | Some v -> note v e.Ast.pos (String.concat "." path)
        | None -> ())
    | Ast.Apply ({ Ast.desc = Ast.Var path; _ }, (_, first) :: _) -> (
        match (mutator path, root_var first) with
        | Some name, Some v -> note v e.Ast.pos ("in-place update via " ^ name)
        | _ -> ())
    | _ -> ());
    Ast.iter_children go e
  in
  go body;
  List.rev !acc

let check (ctx : Rule.sem_ctx) : Rule.finding list =
  let r = ctx.Rule.resolver in
  let mutating = mutators r in
  let findings = ref [] in
  let report ~file (pos : Ast.pos) message =
    findings :=
      { Rule.rule = id; file; line = pos.Ast.line; col = pos.Ast.col; token = ""; message }
      :: !findings
  in
  List.iter
    (fun (path, structure) ->
      match List.find_opt (fun (u : Resolve.unit_) -> String.equal u.Resolve.path path) r.Resolve.units with
      | None -> ()
      | Some u ->
          (* Only the unit's own mutators count: an object handed to
             another module's API (a channel endpoint given to its
             party) is that module's to mediate. *)
          let mutator head =
            let canon = Resolve.resolve_path r u ~opens:[] head in
            match Hashtbl.find_opt r.Resolve.defs canon with
            | Some d when SS.mem canon mutating && String.equal d.Resolve.unit_path path ->
                Some canon
            | _ -> None
          in
          (* One closure handed to [canon]: [closure] for its captures,
             [body] for its mutations. [at] pins every finding to the
             hand-off site; without it mutations point at themselves. *)
          let check_closure mut ~canon ~what ?at (closure : Ast.expr) body =
            if not (mentions_mediation body) then begin
              let captured = Resolve.free_vars closure in
              (* capture of a known-mutable binding *)
              SS.iter
                (fun v ->
                  match List.assoc_opt v mut with
                  | Some ctor ->
                      report ~file:path (Option.value at ~default:closure.Ast.pos)
                        (Printf.sprintf
                           "%s passed to %s captures mutable %s `%s` without \
                            Atomic/Mutex mediation"
                           what canon ctor v)
                  | None -> ())
                captured;
              (* in-place mutation of anything captured *)
              List.iter
                (fun (v, pos, how) ->
                  report ~file:path (Option.value at ~default:pos)
                    (Printf.sprintf
                       "%s passed to %s mutates captured `%s` (%s) without \
                        Atomic/Mutex mediation"
                       what canon v how))
                (mutations_of ~mutator ~captured body)
            end
          in
          (* [mut] maps in-scope variables to the mutable constructor
             that produced them, [funs] local functions to their
             bindings; both threaded through lets lexically. *)
          let rec go_expr mut funs (e : Ast.expr) =
            (match e.Ast.desc with
            | Ast.Apply ({ Ast.desc = Ast.Var head; _ }, args) ->
                let canon = Resolve.resolve_path r u ~opens:[] head in
                List.iter
                  (fun ((label : Ast.arg_label), (a : Ast.expr)) ->
                    if handed_off canon label then
                      match a.Ast.desc with
                      | Ast.Fun (_, body) -> check_closure mut ~canon ~what:"closure" a body
                      | Ast.Function _ -> check_closure mut ~canon ~what:"closure" a a
                      | Ast.Apply ({ Ast.desc = Ast.Var [ f ]; _ }, _) -> (
                          match List.assoc_opt f funs with
                          | Some (b : Ast.binding) ->
                              let closure =
                                { Ast.desc = Ast.Fun (b.Ast.b_params, b.Ast.b_body); pos = a.Ast.pos }
                              in
                              check_closure mut ~canon
                                ~what:(Printf.sprintf "closure `%s ...`" f)
                                ~at:a.Ast.pos closure b.Ast.b_body
                          | None -> ())
                      | _ -> ())
                  args
            | _ -> ());
            let mut', funs' =
              match e.Ast.desc with
              | Ast.Let { bindings; _ } ->
                  (List.fold_left add_binding mut bindings, List.fold_left add_fun funs bindings)
              | _ -> (mut, funs)
            in
            Ast.iter_children (go_expr mut' funs') e
          and add_binding mut (b : Ast.binding) =
            match (b.Ast.b_params, b.Ast.b_body.Ast.desc, b.Ast.b_pat) with
            | [], Ast.Apply ({ Ast.desc = Ast.Var head; _ }, _), Ast.Pvar (v, _) ->
                let canon = Resolve.resolve_path r u ~opens:[] head in
                let name = String.concat "." head in
                if List.mem canon mutable_ctors || List.mem name mutable_ctors then
                  (v, name) :: mut
                else mut
            | _ -> mut
          and add_fun funs (b : Ast.binding) =
            match b.Ast.b_pat with
            | Ast.Pvar (f, _) ->
                let funs = List.remove_assoc f funs in
                if b.Ast.b_params = [] then funs else (f, b) :: funs
            | _ -> funs
          in
          let rec go_items mut (s : Ast.structure) =
            ignore
              (List.fold_left
                 (fun mut item ->
                   match item with
                   | Ast.Ilet { bindings; _ } ->
                       let mut' = List.fold_left add_binding mut bindings in
                       List.iter
                         (fun (b : Ast.binding) -> go_expr mut' [] b.Ast.b_body)
                         bindings;
                       mut'
                   | Ast.Imodule (_, body, _) ->
                       go_items mut body;
                       mut
                   | _ -> mut)
                 mut s)
          in
          go_items [] structure)
    ctx.Rule.structures;
  List.sort_uniq compare (List.rev !findings)

let rule : Rule.sem =
  {
    s_id = id;
    s_summary =
      "no mutable state (ref/Hashtbl/Buffer, in-place writes) captured by \
       closures passed to Pool.map*/Pool.fork/Domain.spawn, or as a party runner's \
       ~sender, without Atomic/Mutex mediation";
    s_description =
      "Closures handed to the domain pool run concurrently: capturing a ref, \
       Hashtbl, Buffer, Queue or Stack — or mutating any captured variable \
       in place — is a data race unless every access is mediated by Atomic \
       or a Mutex. Structural check: a closure mentioning Atomic/Mutex is \
       assumed mediated.";
    s_scope = "lib/, bin/";
    s_check = check;
  }
