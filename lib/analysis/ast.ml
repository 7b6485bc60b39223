(* A simplified OCaml AST, lowered by [Lower] from the compiler's own
   [Parsetree]. It models exactly what the analysis rules need —
   bindings, functions, applications, control flow, closures, mutation,
   module structure — and drops what they do not: types, module types
   and classes. A module body written in expression position is hoisted
   into a structure item (see [Lower]), so every binding the source
   contains is an item the resolver and the rules walk.

   Positions are carried on every expression node (and on the binding
   occurrences of names) so findings can point at real source
   locations. *)

type pos = { line : int; col : int }

(* A qualified name, outermost module first: [Crypto.Drbg.generate] is
   [["Crypto"; "Drbg"; "generate"]]. Operators appear as their symbol
   text (["+"]); polymorphic variant tags keep their backquote
   ("`New"). *)
type path = string list

type arg_label = Nolabel | Labelled of string | Optional of string

type pat =
  | Pany
  | Pvar of string * pos
  | Pconst of string
  | Ptuple of pat list
  | Pconstruct of path * pat option
  | Precord of (path * pat) list * bool (* true when the pattern ends with [; _] *)
  | Plist of pat list
  | Parray_pat of pat list
  | Pcons of pat * pat
  | Palias of pat * string * pos
  | Por of pat * pat
  | Pmodule of string * pos (* first-class module pattern [(module M)] *)
  | Pexception of pat (* [exception P] match-case pattern *)
  | Plazy of pat

type expr = { desc : desc; pos : pos }

and desc =
  | Var of path
  | Const of string
  | Let of { recursive : bool; bindings : binding list; body : expr }
  | Fun of param list * expr
  | Function of case list
  | Apply of expr * (arg_label * expr) list
  | If of expr * expr * expr option
  | Match of expr * case list
  | Try of expr * case list
  | Tuple of expr list
  | Construct of path * expr option
  | Record of (path * expr) list * expr option (* fields, optional [{ base with ... }] *)
  | Field of expr * path
  | Setfield of expr * path * expr
  | Index_get of expr * expr (* [a.(i)] and [s.[i]] *)
  | Index_set of expr * expr * expr
  | List_lit of expr list
  | Array_lit of expr list
  | Sequence of expr * expr
  | While of expr * expr
  | For of { var : string; from_ : expr; to_ : expr; up : bool; body : expr }
  | Letopen of path * expr (* [let open M in e] and [M.(e)] *)
  | Letmodule of string * path option * expr
      (* [let module M = P in e]: [P]'s path, the functor's for an
         application, the hoisted module's for a [struct]; [None] for
         [(val e)] *)
  | Pack of path (* [(module M)]; the hoisted module's for [(module struct ... end)] *)
  | Lazy_ of expr
  | Assert of expr

and param = { label : arg_label; pat : pat; default : expr option }
and binding = { b_pat : pat; b_params : param list; b_body : expr; b_pos : pos }
and case = { lhs : pat; guard : expr option; rhs : expr }

(* Structure items. Type declarations, exception declarations, module
   types and includes are recorded but carry no analyzable payload. *)
type item =
  | Ilet of { recursive : bool; bindings : binding list; i_pos : pos }
  | Imodule of string * item list * pos
      (* [module M = struct ... end], functor bodies included, and the
         hoisted [<struct@LINE:COL>] bodies *)
  | Imodule_alias of string * path * pos (* [module M = A.B] (incl. functor app) *)
  | Iopen of path * pos
  | Iinclude of path * pos
  | Iskipped of string * pos (* "type" | "exception" | "module type" | ... *)

type structure = item list

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* [iter_children f e] applies [f] to every direct sub-expression of
   [e] — the one traversal primitive every rule walker builds on. *)
let iter_children f (e : expr) =
  let case c =
    Option.iter f c.guard;
    f c.rhs
  in
  match e.desc with
  | Var _ | Const _ | Pack _ -> ()
  | Let { bindings; body; _ } ->
      List.iter
        (fun b ->
          List.iter (fun p -> Option.iter f p.default) b.b_params;
          f b.b_body)
        bindings;
      f body
  | Fun (params, body) ->
      List.iter (fun p -> Option.iter f p.default) params;
      f body
  | Function cases -> List.iter case cases
  | Apply (fn, args) ->
      f fn;
      List.iter (fun (_, a) -> f a) args
  | If (c, t, e) ->
      f c;
      f t;
      Option.iter f e
  | Match (e, cases) | Try (e, cases) ->
      f e;
      List.iter case cases
  | Tuple es | List_lit es | Array_lit es -> List.iter f es
  | Construct (_, arg) -> Option.iter f arg
  | Record (fields, base) ->
      Option.iter f base;
      List.iter (fun (_, v) -> f v) fields
  | Field (e, _) -> f e
  | Setfield (e, _, v) ->
      f e;
      f v
  | Index_get (a, i) ->
      f a;
      f i
  | Index_set (a, i, v) ->
      f a;
      f i;
      f v
  | Sequence (a, b) | While (a, b) ->
      f a;
      f b
  | For { from_; to_; body; _ } ->
      f from_;
      f to_;
      f body
  | Letopen (_, e) | Letmodule (_, _, e) | Lazy_ e | Assert e -> f e

(* Every variable bound by a pattern, with its binding position. *)
let rec pat_vars acc = function
  | Pany | Pconst _ -> acc
  | Pvar (v, p) -> (v, p) :: acc
  | Ptuple ps | Plist ps | Parray_pat ps -> List.fold_left pat_vars acc ps
  | Pconstruct (_, arg) -> ( match arg with None -> acc | Some p -> pat_vars acc p)
  | Precord (fields, _) -> List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fields
  | Pcons (a, b) | Por (a, b) -> pat_vars (pat_vars acc a) b
  | Palias (p, v, pos) -> pat_vars ((v, pos) :: acc) p
  | Pmodule (m, pos) -> (m, pos) :: acc
  | Pexception p | Plazy p -> pat_vars acc p

let bound_vars pat = List.rev (pat_vars [] pat)
