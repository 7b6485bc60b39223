(* The token stream the token rules, [Suppress] and
   [Driver.fingerprints] read, produced by the compiler's own lexer
   ([Lexer.token_with_comments] from compiler-libs). Each token keeps a
   coarse [kind], the source slice between its start and end offsets as
   [text], and a 1-based line and column. Compound compiler tokens are
   split back into the pieces a rule looks for: [~x:] is "~" "x" ":",
   [;;] is ";" ";", [[|] is "[" "|". Every other token is the compiler's
   own, so [r:=!r] reads as "r" ":=" "!" "r". *)

type kind =
  | Ident (* lowercase identifier or keyword, including [_], [true], [mod] *)
  | Uident (* capitalized identifier (module/constructor) *)
  | Number (* int or float literal, any base, no sign *)
  | Char_lit (* quotes included in [text] *)
  | String_lit (* "..." or {id|...|id}, delimiters included *)
  | Comment (* delimiters included; comments nest *)
  | Symbol (* operator or single punctuation character *)

type token = { kind : kind; text : string; line : int; col : int }

exception Error of { line : int; col : int; message : string }

let line_col (p : Lexing.position) = (p.pos_lnum, p.pos_cnum - p.pos_bol + 1)

(* The compiler's lexer and parser report through [Location]; this
   turns one of their exceptions into [Error] at the start of its
   location and leaves any other exception alone. *)
let error_of_exn exn =
  match Location.error_of_exn exn with
  | Some (`Ok (e : Location.error)) ->
      let line, col = line_col e.main.loc.loc_start in
      Error { line; col; message = Format.asprintf "%t" e.main.txt }
  | Some `Already_displayed | None -> exn

let is_op_char = function
  | '!' | '$' | '%' | '&' | '*' | '+' | '-' | '.' | '/' | ':' | '<' | '=' | '>' | '?' | '@'
  | '^' | '|' | '~' | '#' ->
      true
  | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Split a keyword, identifier or symbol slice into identifier runs,
   operator runs and single punctuation characters, with their offsets. *)
let pieces text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let run pred =
        let j = ref (i + 1) in
        while !j < n && pred text.[!j] do
          incr j
        done;
        !j
      in
      let kind, j =
        match text.[i] with
        | 'a' .. 'z' | '_' -> (Ident, run is_ident_char)
        | 'A' .. 'Z' -> (Uident, run is_ident_char)
        | c when is_op_char c -> (Symbol, run is_op_char)
        | _ -> (Symbol, i + 1)
      in
      let piece = if i = 0 && j = n then text else String.sub text i (j - i) in
      go j ((kind, i, piece) :: acc)
  in
  go 0 []

(* [of_string src] lexes a compilation unit, comments included (the
   suppression scanner reads them).
   @raise Error when the compiler's lexer rejects the source. *)
let of_string src =
  let lexbuf = Lexing.from_string src in
  Lexer.init ();
  (* tokens in reverse *)
  let out = ref [] in
  let push kind (start : Lexing.position) stop =
    let text = String.sub src start.pos_cnum (stop - start.pos_cnum) in
    let line, col = line_col start in
    match kind with
    | Some kind -> out := { kind; text; line; col } :: !out
    | None ->
        List.iter
          (fun (kind, off, text) -> out := { kind; text; line; col = col + off } :: !out)
          (pieces text)
  in
  let rec loop () =
    let tok = Lexer.token_with_comments lexbuf in
    let start = lexbuf.lex_start_p and stop = lexbuf.lex_curr_p.pos_cnum in
    let kind, (start, stop) =
      let loc (l : Location.t) = (l.loc_start, l.loc_end.pos_cnum) in
      match tok with
      | Parser.COMMENT (_, l) -> (Some Comment, loc l)
      | Parser.DOCSTRING d -> (Some Comment, loc (Docstrings.docstring_loc d))
      | Parser.STRING _ | Parser.QUOTED_STRING_EXPR _ | Parser.QUOTED_STRING_ITEM _ ->
          (Some String_lit, (start, stop))
      | Parser.CHAR _ -> (Some Char_lit, (start, stop))
      | Parser.INT _ | Parser.FLOAT _ -> (Some Number, (start, stop))
      | _ -> (None, (start, stop))
    in
    match tok with
    | Parser.EOF -> ()
    | Parser.EOL -> loop ()
    | _ ->
        push kind start stop;
        loop ()
  in
  (match Warnings.without_warnings loop with
  | () -> ()
  | exception exn -> raise (error_of_exn exn));
  List.rev !out

(* [significant tokens] drops comments: most rules scan only code. *)
let significant tokens = List.filter (fun t -> t.kind <> Comment) tokens
