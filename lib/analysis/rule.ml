(* The rule interface: a rule looks at one file's token stream and
   reports findings. Rules never see the filesystem; the driver feeds
   them (path, tokens) pairs, which keeps them trivially testable. *)

type finding = {
  rule : string;
  file : string; (* repo-relative, '/'-separated *)
  line : int;
  col : int;
  token : string; (* matched token text — part of the baseline fingerprint *)
  message : string;
}

type t = {
  id : string;
  summary : string; (* one line for --list-rules and the docs *)
  description : string; (* what the rule enforces and why, for the registry *)
  scope : string; (* human-readable path scope, e.g. "lib/bignum, lib/crypto" *)
  applies : string -> bool; (* relative path filter *)
  check : file:string -> Tokens.token array -> finding list;
}

(* Semantic rules run after the parse/resolve/taint phases and see the
   whole program at once, not one token stream. Their findings feed the
   same suppression/baseline pipeline as token rules. *)
type sem_ctx = {
  structures : (string * Ast.structure) list; (* path -> parsed unit *)
  resolver : Resolve.t;
  taint : Taint.result;
}

type sem = {
  s_id : string;
  s_summary : string;
  s_description : string;
  s_scope : string;
  s_check : sem_ctx -> finding list;
}

let finding ~rule ~file (tok : Tokens.token) message =
  { rule; file; line = tok.line; col = tok.col; token = tok.text; message }

(* ------------------------------------------------------------------ *)
(* Path helpers                                                        *)
(* ------------------------------------------------------------------ *)

let in_dir prefix path =
  let n = String.length prefix in
  String.length path >= n && String.equal (String.sub path 0 n) prefix

let any_dir prefixes path = List.exists (fun p -> in_dir p path) prefixes

(* ------------------------------------------------------------------ *)
(* Token helpers                                                       *)
(* ------------------------------------------------------------------ *)

let is_kind (t : Tokens.token) k = t.kind = k
let has_text (t : Tokens.token) s = String.equal t.text s
let is_sym t s = is_kind t Tokens.Symbol && has_text t s
let is_ident t s = is_kind t Tokens.Ident && has_text t s

(* Top-level items start at column 1 (the lexer is 1-based): [let]/[and]
   bindings and the structural keywords between them. Everything else
   (nested lets, match arms) stays inside the current item. *)
let starts_item (t : Tokens.token) =
  t.col = 1 && t.kind = Tokens.Ident
  && List.mem t.text [ "let"; "and"; "module"; "type"; "open"; "exception" ]

(* [qualified_at toks i] reads the longest dotted path starting at a
   [Uident] at index [i]: for [Stdlib.compare] it returns
   (["Stdlib"; "compare"], next_index). Stops before a [.(] projection
   so [Stdlib.(=)] yields (["Stdlib"], index_of_dot). *)
let qualified_at (toks : Tokens.token array) i =
  let n = Array.length toks in
  let rec go acc j =
    (* acc holds path components in reverse; toks.(j-1) was the last one *)
    if j + 1 < n && is_sym toks.(j) "." then
      match toks.(j + 1).kind with
      | Tokens.Ident | Tokens.Uident -> go (toks.(j + 1).text :: acc) (j + 2)
      | _ -> (List.rev acc, j)
    else (List.rev acc, j)
  in
  if i < n && is_kind toks.(i) Tokens.Uident then go [ toks.(i).text ] (i + 1)
  else ([], i)

let path_string components = String.concat "." components
