(* OBS01 — no unmatched span brackets in libraries.

   [Obs.Span.enter] returns a handle that must reach [Obs.Span.exit]
   (or be closed via [Fun.protect ~finally]) on every path, or the span
   stack is left perturbed: every later span in the same thread attaches
   under the leaked parent and the exported tree misreports the
   protocol's structure. Library code should use [Obs.Span.with_],
   which brackets exceptions for free; this rule flags any top-level
   item that contains more qualified [Span.enter] calls than
   [Span.exit] calls. The matching is structural (token counts per
   item), not flow-sensitive — a genuine handle handoff across items
   can be suppressed inline like any other rule. *)

let id = "OBS01"

let last2 path =
  match List.rev path with
  | a :: b :: _ -> Some (b, a)
  | _ -> None

let is_span_call name path =
  match last2 path with
  | Some ("Span", f) -> String.equal f name
  | _ -> false

let check ~file (toks : Tokens.token array) =
  let n = Array.length toks in
  let findings = ref [] in
  (* Per current item: the enter tokens seen, and how many exits. *)
  let enters = ref [] and exits = ref 0 in
  let flush () =
    let es = List.rev !enters in
    let surplus = List.length es - !exits in
    if surplus > 0 then
      (* With e enters and x exits, flag the last e-x enters: the first
         x are given the benefit of pairing with the exits. *)
      List.iteri
        (fun k tok ->
          if k >= !exits then
            findings :=
              Rule.finding ~rule:id ~file tok
                "Span.enter without a matching Span.exit in this item; \
                 use Obs.Span.with_ (exception-safe) or close the handle \
                 on every path"
              :: !findings)
        es;
    enters := [];
    exits := 0
  in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    if Rule.starts_item t then flush ();
    if t.kind = Tokens.Uident then begin
      let path, next = Rule.qualified_at toks !i in
      if is_span_call "enter" path then enters := t :: !enters
      else if is_span_call "exit" path then incr exits;
      (* Consume the whole dotted path so [Obs.Span.enter] is not
         re-matched at its inner [Span] component. *)
      i := max next (!i + 1)
    end
    else incr i
  done;
  flush ();
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary = "no Span.enter without a structurally matching Span.exit in lib/";
    description =
      "A leaked span handle perturbs the ambient span stack: every later span \
       on the thread attaches under the wrong parent. Use Obs.Span.with_, \
       which is exception-safe.";
    scope = "lib/";
    applies = Rule.in_dir "lib/";
    check;
  }
