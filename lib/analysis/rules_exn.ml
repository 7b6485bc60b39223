(* EXN01 — no exception swallowing.

   [try ... with _ -> ...] hides every failure, including the typed
   protocol errors ([Wire.Protocol_error], [Buf.Parse_error]) that the
   security tests rely on to prove malformed input is rejected. A
   swallowed exception in a protocol party turns "abort on bad frame"
   into "continue with garbage" — exactly the §3.1 class of silent
   deviation. Handlers must name the exceptions they mean to catch.

   Token-level detection distinguishes the three meanings of [with]:
   - [try ... with]     — a catch-all arm here is flagged;
   - [match ... with]   — wildcard arms are normal, skipped;
   - [{ r with f = v }] — record update, skipped (tracked via braces).
   Module-type constraints ([S with type t = u]) appear with an empty
   tracking stack and are ignored. *)

let id = "EXN01"

type frame = Try | Match | Brace

let check ~file (toks : Tokens.token array) =
  let toks = Array.of_list (Tokens.significant (Array.to_list toks)) in
  let n = Array.length toks in
  let findings = ref [] in
  let stack = ref [] in
  let push f = stack := f :: !stack in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    (match t.kind with
    | Tokens.Ident when String.equal t.text "try" -> push Try
    | Tokens.Ident when String.equal t.text "match" -> push Match
    | Tokens.Symbol when String.equal t.text "{" -> push Brace
    | Tokens.Symbol when String.equal t.text "}" -> (
        (* Pop through any unconsumed try/match frames opened inside the
           braces (e.g. a match whose arms end at the brace). *)
        let rec pop () =
          match !stack with
          | Brace :: rest -> stack := rest
          | (Try | Match) :: rest ->
              stack := rest;
              pop ()
          | [] -> ()
        in
        pop ())
    | Tokens.Ident when String.equal t.text "with" -> (
        match !stack with
        | Try :: rest ->
            stack := rest;
            (* the handler may open with an optional leading [|] *)
            let j = if !i + 1 < n && Rule.is_sym toks.(!i + 1) "|" then !i + 2 else !i + 1 in
            if j + 1 < n && Rule.is_ident toks.(j) "_" && Rule.is_sym toks.(j + 1) "->"
            then
              findings :=
                Rule.finding ~rule:id ~file t
                  "catch-all `try ... with _ ->` swallows typed protocol errors; \
                   name the exceptions this handler is meant to catch"
                :: !findings
        | Match :: rest -> stack := rest
        | Brace :: _ | [] -> (* record update or module constraint *) ())
    | _ -> ());
    incr i
  done;
  List.rev !findings

let rule : Rule.t =
  {
    id;
    summary = "no exception-swallowing `try ... with _ ->`";
    description =
      "A wildcard try-handler swallows protocol aborts, turning \
       malformed-input failures (which the security argument requires to be \
       fatal) into silent wrong answers. Match the exceptions you mean.";
    scope = "lib/, bin/";
    applies = (fun _ -> true);
    check;
  }

(* ERR01 — a receive path raises a typed error.

   Whether a reconnect can cure a failure is decided in one place,
   [Wire.Errors]: a malformed, mistagged or miscounted frame is a
   [Protocol_error] (transient), an element outside the group a
   [Peer_violation] (fatal), and [Failure] means a local bug, which the
   retry loop never retries. A [failwith] on a receive path turns the
   peer's fault into our bug. Counted per top-level item, as OBS01
   counts spans: an item that reads a frame ([Channel.recv],
   [Protocol.recv_*], [recv_tagged], [elements_of], [pairs_of], or a
   local [recv_*] helper) may not also [failwith] or raise [Failure]. *)

module Err = struct
  let id = "ERR01"
  let frame_readers = [ "recv_tagged"; "elements_of"; "pairs_of" ]

  let reads_frame path =
    match List.rev path with
    | "recv" :: "Channel" :: _ -> true
    | f :: "Protocol" :: _ when String.starts_with ~prefix:"recv_" f -> true
    | [ f ] -> List.mem f frame_readers || String.starts_with ~prefix:"recv_" f
    | f :: _ -> List.mem f frame_readers
    | [] -> false

  let check ~file (toks : Tokens.token array) =
    let toks = Array.of_list (Tokens.significant (Array.to_list toks)) in
    let n = Array.length toks in
    let findings = ref [] in
    (* Per current item: the failures raised, and whether it reads. *)
    let raises = ref [] and reads = ref false in
    let flush () =
      if !reads then
        List.iter
          (fun tok ->
            findings :=
              Rule.finding ~rule:id ~file tok
                "Failure on a receive path: raise Wire.Errors.Protocol_error (a \
                 reconnect may cure it) or Peer_violation (none can)"
              :: !findings)
          (List.rev !raises);
      raises := [];
      reads := false
    in
    (* A name being bound, not called. *)
    let bound i =
      i > 0
      && List.exists (Rule.is_ident toks.(i - 1)) [ "let"; "and"; "rec"; "val" ]
    in
    let i = ref 0 in
    while !i < n do
      let t = toks.(!i) in
      if Rule.starts_item t then flush ();
      match t.kind with
      | Tokens.Uident ->
          let path, next = Rule.qualified_at toks !i in
          if reads_frame path then reads := true
          else if String.equal (Rule.path_string path) "Stdlib.failwith" then
            raises := t :: !raises;
          i := max next (!i + 1)
      | Tokens.Ident when String.equal t.text "failwith" && not (bound !i) ->
          raises := t :: !raises;
          incr i
      | Tokens.Ident when String.equal t.text "raise" ->
          let j = if !i + 1 < n && Rule.is_sym toks.(!i + 1) "(" then !i + 2 else !i + 1 in
          if j < n && toks.(j).kind = Tokens.Uident && String.equal toks.(j).text "Failure"
          then raises := t :: !raises;
          incr i
      | Tokens.Ident when reads_frame [ t.text ] && not (bound !i) ->
          reads := true;
          incr i
      | _ -> incr i
    done;
    flush ();
    List.rev !findings

  let rule : Rule.t =
    {
      id;
      summary = "lib/core, lib/wire: a binding that reads a frame raises no Failure";
      description =
        "Receive paths classify what they reject through Wire.Errors: \
         Protocol_error when a reconnect may cure it, Peer_violation when none \
         can. A Failure there reads as a local bug, so the peer's fault is \
         neither retried nor reported as the peer's.";
      scope = "lib/core/, lib/wire/";
      applies = Rule.any_dir [ "lib/core/"; "lib/wire/" ];
      check;
    }
end
