(* CT01 — constant-time hygiene in secret-bearing modules.

   Inside [lib/bignum], [lib/crypto], [lib/minidb] and [lib/cache] the
   operands of a comparison may be key material, blinded values, joined
   attributes or cached ciphertexts, and OCaml's polymorphic
   comparisons ([Stdlib.compare], [Hashtbl.hash], structural [=] on
   boxed values) walk their operands with data-dependent early exits —
   a textbook timing side channel. The rule flags every use of a
   *named* polymorphic comparison; equality on these types must go
   through the module's own [equal]/[compare].

   Scope notes (why this is sound at token level):
   - Infix [=]/[<>] on values the compiler knows to be [int] compiles to
     a native integer compare, constant-time per limb, so bare infix
     comparisons are not flagged: in these modules every boxed
     comparison is written through a named function, which we do track.
     Physical [==]/[!=] is flagged unconditionally — it is never the
     right equality for crypto values.
   - A file that defines its own top-level [compare]/[min]/[max]
     shadows Stdlib's from that point on; later unqualified uses refer
     to the local, explicitly-written function and are skipped. *)

let id = "CT01"

let secret_dirs =
  [ "lib/bignum/"; "lib/crypto/"; "lib/minidb/"; "lib/cache/" ]

(* Named functions that dispatch to the polymorphic runtime compare. *)
let banned_paths =
  [
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
    "Hashtbl.hash";
    "Hashtbl.seeded_hash";
    "List.mem";
    "List.assoc";
    "List.mem_assoc";
  ]

(* Unqualified names that mean Stdlib's polymorphic function unless the
   file shadowed them with its own definition. *)
let shadowable = [ "compare"; "min"; "max" ]

let message what =
  Printf.sprintf
    "%s is a polymorphic (variable-time) comparison in a secret-bearing module; \
     use an explicit monomorphic equal/compare"
    what

let check ~file (toks : Tokens.token array) =
  let n = Array.length toks in
  let findings = ref [] in
  let add tok what =
    findings := Rule.finding ~rule:id ~file tok (message what) :: !findings
  in
  let local_defs = Hashtbl.create 4 in
  let is_definition i =
    i > 0
    &&
    let prev = toks.(i - 1) in
    Rule.is_ident prev "let" || Rule.is_ident prev "rec" || Rule.is_ident prev "and"
    || Rule.is_ident prev "val"
  in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (match t.kind with
    | Tokens.Uident ->
        let path, next = Rule.qualified_at toks !i in
        let p = Rule.path_string path in
        if List.exists (String.equal p) banned_paths then add t p;
        (* [Stdlib.(=)]-style projection of a polymorphic operator. *)
        if
          List.length path = 1
          && (String.equal p "Stdlib" || String.equal p "Hashtbl")
          && next + 2 < n
          && Rule.is_sym toks.(next) "."
          && Rule.is_sym toks.(next + 1) "("
          && toks.(next + 2).kind = Tokens.Symbol
          && List.exists (Rule.has_text toks.(next + 2)) [ "="; "<>"; "=="; "!=" ]
        then add t (p ^ ".(" ^ toks.(next + 2).text ^ ")");
        i := Stdlib.max !i (next - 1)
    | Tokens.Ident when List.exists (String.equal t.text) shadowable ->
        let qualified = !i > 0 && Rule.is_sym toks.(!i - 1) "." in
        if is_definition !i then Hashtbl.replace local_defs t.text ()
        else if (not qualified) && not (Hashtbl.mem local_defs t.text) then
          add t (t.text ^ " (Stdlib's polymorphic " ^ t.text ^ ")")
    | Tokens.Symbol when String.equal t.text "==" || String.equal t.text "!=" ->
        add t ("physical " ^ t.text)
    | Tokens.Symbol when String.equal t.text "(" ->
        (* Operator section [( = )] used as a first-class comparator,
           e.g. [List.exists ((=) x)]. Skip definitions [let ( = ) ...]. *)
        if
          !i + 2 < n
          && toks.(!i + 1).kind = Tokens.Symbol
          && List.exists (Rule.has_text toks.(!i + 1)) [ "="; "<>" ]
          && Rule.is_sym toks.(!i + 2) ")"
          && not (!i > 0 && Rule.is_ident toks.(!i - 1) "let")
        then add toks.(!i + 1) ("( " ^ toks.(!i + 1).text ^ " )")
    | _ -> ());
    incr i
  done;
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary =
      "no polymorphic compare/hash (Stdlib.compare, Hashtbl.hash, (=), min/max, \
       List.mem/assoc) in lib/bignum, lib/crypto, lib/minidb or lib/cache";
    description =
      "Polymorphic comparison walks structure in data-dependent time and order, \
       so comparing secret-bearing values with it leaks through timing. \
       Secret-bearing modules must use explicit monomorphic comparators.";
    scope = "lib/bignum, lib/crypto, lib/minidb, lib/cache";
    applies = Rule.any_dir secret_dirs;
    check;
  }
