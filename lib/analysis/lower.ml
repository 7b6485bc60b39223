(* Lowering from the compiler's [Parsetree] (compiler-libs'
   [Parse.implementation]) to the lint [Ast]. The compiler does the
   parsing, with its own precedence and every construct the language
   has; this module only keeps what the analyses walk:

   - types, module types, classes and attributes are dropped;
   - [fun a b -> e] and [let f a b = e] keep their parameters in one
     list, as written (the compiler's ghost nesting is undone);
   - [a.(i)], [s.[i]] and their assignments become [Index_get] and
     [Index_set]; a list literal is [List_lit];
   - a module body in expression position — [(module struct ... end)],
     the [struct] argument of a functor application in
     [let module M = F (struct ... end) in] — is hoisted out as an
     [Imodule] item named [<struct@LINE:COL>], placed just before the
     structure item that contains it, so [Resolve], [Taint] and the
     rules see its bindings like any other; the expression keeps a
     [Pack]/[Letmodule] naming that module. [include struct ... end]
     and [open struct ... end] splice their items in place.

   Positions are 1-based (line, column) of the first character of the
   construct as written, parentheses excluded. *)

open Parsetree
open Ast

type cx = { src : string; hoisted : item list ref }

let pos_of (l : Location.t) =
  let line, col = Tokens.line_col l.loc_start in
  { line; col }

(* The location of an expression before parentheses relocated it. *)
let inner_loc e = match List.rev e.pexp_loc_stack with l :: _ -> l | [] -> e.pexp_loc
let inner_ploc p = match List.rev p.ppat_loc_stack with l :: _ -> l | [] -> p.ppat_loc

let slice cx (l : Location.t) =
  String.sub cx.src l.loc_start.pos_cnum (l.loc_end.pos_cnum - l.loc_start.pos_cnum)

let rec path_of (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (p, s) -> path_of p @ [ s ]
  | Lapply (f, _) -> path_of f

let label (l : Asttypes.arg_label) =
  match l with
  | Asttypes.Nolabel -> Nolabel
  | Asttypes.Labelled s -> Labelled s
  | Asttypes.Optional s -> Optional s

let before (a : pos) (b : pos) = a.line < b.line || (a.line = b.line && a.col <= b.col)

(* [x :: y :: []] (including the sugared [[x; y]]): its items. *)
let rec list_items e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> Some []
  | Pexp_construct ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ h; t ]; _ })
    ->
      Option.map (fun l -> h :: l) (list_items t)
  | _ -> None

let rec lower_pat cx p =
  match p.ppat_desc with
  | Ppat_any | Ppat_type _ | Ppat_extension _ -> Pany
  | Ppat_var { txt; loc } -> Pvar (txt, pos_of loc)
  | Ppat_alias (q, { txt; loc }) -> Palias (lower_pat cx q, txt, pos_of loc)
  | Ppat_constant _ | Ppat_interval _ -> Pconst (slice cx (inner_ploc p))
  | Ppat_tuple ps -> Ptuple (List.map (lower_pat cx) ps)
  | Ppat_construct ({ txt = Lident "()"; _ }, None) -> Pconst "()"
  | Ppat_construct ({ txt = Lident "[]"; _ }, None) -> Plist []
  | Ppat_construct ({ txt = Lident "::"; _ }, Some (_, { ppat_desc = Ppat_tuple [ h; t ]; _ })) -> (
      match lower_pat cx t with
      | Plist items -> Plist (lower_pat cx h :: items)
      | t -> Pcons (lower_pat cx h, t))
  | Ppat_construct ({ txt; _ }, arg) ->
      Pconstruct (path_of txt, Option.map (fun (_, q) -> lower_pat cx q) arg)
  | Ppat_variant (tag, arg) -> Pconstruct ([ "`" ^ tag ], Option.map (lower_pat cx) arg)
  | Ppat_record (fields, closed) ->
      let field (({ txt; _ } : _ Asttypes.loc), q) = (path_of txt, lower_pat cx q) in
      Precord (List.map field fields, closed = Asttypes.Open)
  | Ppat_array ps -> Parray_pat (List.map (lower_pat cx) ps)
  | Ppat_or (a, b) -> Por (lower_pat cx a, lower_pat cx b)
  | Ppat_constraint (q, _) | Ppat_open (_, q) -> lower_pat cx q
  | Ppat_lazy q -> Plazy (lower_pat cx q)
  | Ppat_unpack { txt; loc } -> Pmodule (Option.value txt ~default:"_", pos_of loc)
  | Ppat_exception q -> Pexception (lower_pat cx q)

let rec lower_expr cx e =
  let pos = pos_of (inner_loc e) in
  let mk desc = { desc; pos } in
  let lower = lower_expr cx in
  let case c =
    { lhs = lower_pat cx c.pc_lhs; guard = Option.map lower c.pc_guard; rhs = lower c.pc_rhs }
  in
  let cases = List.map case in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> mk (Var (path_of txt))
  | Pexp_constant _ -> mk (Const (slice cx (inner_loc e)))
  | Pexp_let (rf, vbs, body) ->
      mk
        (Let
           {
             recursive = rf = Asttypes.Recursive;
             bindings = List.map (binding cx) vbs;
             body = lower body;
           })
  | Pexp_fun _ ->
      let params, body = fun_params cx ~outer:true e in
      mk (Fun (params, body))
  | Pexp_function cs -> mk (Function (cases cs))
  | Pexp_apply (f, args) -> (
      let args = List.map (fun (l, a) -> (label l, lower a)) args in
      (* the [a.(i)] / [s.[i]] sugar applies a ghost [Array.get] & co. *)
      let sugar = f.pexp_loc.loc_ghost in
      match (f.pexp_desc, args) with
      | ( Pexp_ident { txt = Ldot (Lident ("Array" | "String"), ("get" | "unsafe_get")); _ },
          [ (Nolabel, a); (Nolabel, i) ] )
        when sugar ->
          { desc = Index_get (a, i); pos = a.pos }
      | ( Pexp_ident { txt = Ldot (Lident ("Array" | "String"), ("set" | "unsafe_set")); _ },
          [ (Nolabel, a); (Nolabel, i); (Nolabel, v) ] )
        when sugar ->
          { desc = Index_set (a, i, v); pos = a.pos }
      | _ -> apply cx f args)
  | Pexp_match (s, cs) -> mk (Match (lower s, cases cs))
  | Pexp_try (b, cs) -> mk (Try (lower b, cases cs))
  | Pexp_tuple es ->
      let es = List.map lower es in
      { desc = Tuple es; pos = (List.hd es).pos }
  | Pexp_construct ({ txt = Lident "()"; _ }, None) -> mk (Const "()")
  | Pexp_construct ({ txt; _ }, arg) -> (
      match list_items e with
      | Some items -> mk (List_lit (List.map lower items))
      | None -> mk (Construct (path_of txt, Option.map lower arg)))
  | Pexp_variant (tag, arg) -> mk (Construct ([ "`" ^ tag ], Option.map lower arg))
  | Pexp_record (fields, base) ->
      let field (({ txt; _ } : _ Asttypes.loc), v) = (path_of txt, lower v) in
      mk (Record (List.map field fields, Option.map lower base))
  | Pexp_field (r, { txt; _ }) ->
      let r = lower r in
      { desc = Field (r, path_of txt); pos = r.pos }
  | Pexp_setfield (r, { txt; _ }, v) ->
      let r = lower r in
      { desc = Setfield (r, path_of txt, lower v); pos = r.pos }
  | Pexp_array es -> mk (Array_lit (List.map lower es))
  | Pexp_ifthenelse (c, t, f) -> mk (If (lower c, lower t, Option.map lower f))
  | Pexp_sequence (a, b) ->
      let a = lower a in
      { desc = Sequence (a, lower b); pos = a.pos }
  | Pexp_while (c, b) -> mk (While (lower c, lower b))
  | Pexp_for (p, from_, to_, dir, body) ->
      let var = match p.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> "_" in
      let up = dir = Asttypes.Upto in
      mk (For { var; from_ = lower from_; to_ = lower to_; up; body = lower body })
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_send (x, _) | Pexp_poly (x, _)
  | Pexp_newtype (_, x) | Pexp_letexception (_, x) ->
      lower x
  | Pexp_new { txt; _ } -> mk (Var (path_of txt))
  | Pexp_letmodule ({ txt; _ }, me, body) ->
      let m = module_path cx me in
      mk (Letmodule (Option.value txt ~default:"_", m, lower body))
  | Pexp_pack me -> mk (Pack (Option.value (module_path cx me) ~default:[]))
  | Pexp_open ({ popen_expr; _ }, body) ->
      let m = module_path cx popen_expr in
      mk (Letopen (Option.value m ~default:[], lower body))
  | Pexp_letop { let_; ands; body } ->
      (* [let* p = e and* q = f in body] binds [p] and [q] as a [let] would *)
      let bind (b : binding_op) =
        let b_pos = pos_of b.pbop_pat.ppat_loc in
        { b_pat = lower_pat cx b.pbop_pat; b_params = []; b_body = lower b.pbop_exp; b_pos }
      in
      let bindings = List.map bind (let_ :: ands) in
      mk (Let { recursive = false; bindings; body = lower body })
  | Pexp_assert x -> mk (Assert (lower x))
  | Pexp_lazy x -> mk (Lazy_ (lower x))
  | Pexp_setinstvar _ | Pexp_override _ | Pexp_object _ | Pexp_extension _
  | Pexp_unreachable ->
      mk (Const "")

(* An application sits at its head, or at its first operand when the
   head is an infix operator. *)
and apply cx f args =
  let f = lower_expr cx f in
  let pos = match args with (_, a) :: _ when before a.pos f.pos -> a.pos | _ -> f.pos in
  { desc = Apply (f, args); pos }

(* The parameters of [fun]/[let f a b =]: the compiler nests one
   [Pexp_fun] per parameter and marks the nested ones ghost, so a ghost
   [Pexp_fun] continues the list and a written [fun] starts a new one.
   Locally abstract types are dropped. *)
and fun_params cx ~outer e =
  match e.pexp_desc with
  | Pexp_fun (l, default, p, body) when outer || e.pexp_loc.loc_ghost ->
      let params, body = fun_params cx ~outer:false body in
      let default = Option.map (lower_expr cx) default in
      ({ label = label l; pat = lower_pat cx p; default } :: params, body)
  | Pexp_newtype (_, body) -> fun_params cx ~outer body
  | _ -> ([], lower_expr cx e)

and binding cx vb =
  let b_params, b_body = fun_params cx ~outer:false vb.pvb_expr in
  { b_pat = lower_pat cx vb.pvb_pat; b_params; b_body; b_pos = pos_of vb.pvb_pat.ppat_loc }

(* The items of a module expression that is a structure, under any
   functor parameters and signature constraints. *)
and module_items cx me =
  match me.pmod_desc with
  | Pmod_structure s -> Some (lower_structure cx.src s)
  | Pmod_functor (_, body) | Pmod_constraint (body, _) -> module_items cx body
  | _ -> None

(* The path a module expression names: the module itself, or the
   functor of an application. A structure is hoisted into [cx.hoisted]
   and named by its position; [None] for [(val e)] and extensions. *)
and module_path cx me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (path_of txt)
  | Pmod_apply (f, arg) ->
      ignore (module_path cx arg);
      module_path cx f
  | Pmod_apply_unit f -> module_path cx f
  | Pmod_constraint (m, _) -> module_path cx m
  | Pmod_structure _ | Pmod_functor _ -> (
      match module_items cx me with
      | Some body ->
          let pos = pos_of me.pmod_loc in
          let name = Printf.sprintf "<struct@%d:%d>" pos.line pos.col in
          cx.hoisted := Imodule (name, body, pos) :: !(cx.hoisted);
          Some [ name ]
      | None -> None)
  | Pmod_unpack _ | Pmod_extension _ -> None

and lower_item cx (item : structure_item) =
  let pos = pos_of item.pstr_loc in
  let module_binding mb =
    let name = Option.value mb.pmb_name.txt ~default:"_" in
    match module_items cx mb.pmb_expr with
    | Some body -> Imodule (name, body, pos_of mb.pmb_loc)
    | None -> (
        match module_path cx mb.pmb_expr with
        | Some p -> Imodule_alias (name, p, pos_of mb.pmb_loc)
        | None -> Iskipped ("module", pos_of mb.pmb_loc))
  in
  let splice_or keep me =
    match me.pmod_desc with
    | Pmod_structure s -> lower_structure cx.src s
    | _ -> ( match module_path cx me with Some p -> [ keep p ] | None -> [])
  in
  match item.pstr_desc with
  | Pstr_value (rf, vbs) ->
      let recursive = rf = Asttypes.Recursive in
      [ Ilet { recursive; bindings = List.map (binding cx) vbs; i_pos = pos } ]
  | Pstr_eval (e, _) ->
      let b = { b_pat = Pany; b_params = []; b_body = lower_expr cx e; b_pos = pos } in
      [ Ilet { recursive = false; bindings = [ b ]; i_pos = pos } ]
  | Pstr_module mb -> [ module_binding mb ]
  | Pstr_recmodule mbs -> List.map module_binding mbs
  | Pstr_open { popen_expr; _ } -> splice_or (fun p -> Iopen (p, pos)) popen_expr
  | Pstr_include { pincl_mod; _ } -> splice_or (fun p -> Iinclude (p, pos)) pincl_mod
  | Pstr_modtype _ | Pstr_class_type _ -> [ Iskipped ("module type", pos) ]
  | Pstr_type _ | Pstr_typext _ -> [ Iskipped ("type", pos) ]
  | Pstr_exception _ -> [ Iskipped ("exception", pos) ]
  | Pstr_primitive _ -> [ Iskipped ("external", pos) ]
  | Pstr_class _ -> [ Iskipped ("class", pos) ]
  | Pstr_extension _ -> [ Iskipped ("extension", pos) ]
  | Pstr_attribute _ -> []

and lower_structure src (s : Parsetree.structure) =
  List.concat_map
    (fun item ->
      let cx = { src; hoisted = ref [] } in
      let items = lower_item cx item in
      List.rev_append !(cx.hoisted) items)
    s

(* [structure_of_string src] parses a compilation unit with the
   compiler's parser, warnings and alerts off, and lowers it.
   @raise Tokens.Error when the compiler rejects the source. *)
let structure_of_string src =
  let parse () = Parse.implementation (Lexing.from_string src) in
  match Warnings.without_warnings parse with
  | s -> lower_structure src s
  | exception exn -> raise (Tokens.error_of_exn exn)
