(* The bench gate's row differ: exact rows match anywhere, floors and
   ceilings hold within the slack on a box like the committed one, and
   a gated row the fresh run lacks fails. *)

let row ?gate metric value =
  { Rows.scenario = "s"; layer = "l"; metric; value; unit = "u"; gate }

let outcomes ?(slack = 1.6) ?(inject = 1.) ?(same_box = true) committed fresh =
  List.map
    (fun (c : Rows.check) -> (c.row, c.outcome))
    (Rows.diff ~slack ~inject ~same_box ~committed ~fresh)

let outcome =
  Alcotest.testable
    (fun fmt o ->
      Format.pp_print_string fmt
        (match o with Rows.Pass -> "pass" | Fail -> "fail" | Skip -> "skip"))
    ( = )

let check = Alcotest.(check (list (pair string outcome)))

let test_exact () =
  let c = [ row ~gate:Exact "ce" 240. ] in
  check "equal count passes" [ ("s/l/ce", Pass) ] (outcomes c [ row "ce" 240. ]);
  check "one extra encryption fails" [ ("s/l/ce", Fail) ] (outcomes c [ row "ce" 241. ])

let test_floor () =
  let c = [ row ~gate:Floor "el_per_s" 1600. ] in
  check "at committed/slack passes" [ ("s/l/el_per_s", Pass) ]
    (outcomes c [ row "el_per_s" 1000. ]);
  check "below committed/slack fails" [ ("s/l/el_per_s", Fail) ]
    (outcomes c [ row "el_per_s" 999. ])

let test_ceiling () =
  let c = [ row ~gate:Ceiling "wall_ms" 100. ] in
  check "at committed*slack passes" [ ("s/l/wall_ms", Pass) ]
    (outcomes c [ row "wall_ms" 160. ]);
  check "above committed*slack fails" [ ("s/l/wall_ms", Fail) ]
    (outcomes c [ row "wall_ms" 161. ])

let test_other_box () =
  (* Another core count: timings are skipped, counts still gate. *)
  let c =
    [ row ~gate:Floor "el_per_s" 1600.; row ~gate:Ceiling "wall_ms" 100.;
      row ~gate:Exact "ce" 240. ]
  in
  let fresh = [ row "el_per_s" 1.; row "wall_ms" 1e6; row "ce" 241. ] in
  check "floor/ceiling skipped, exact checked"
    [ ("s/l/el_per_s", Skip); ("s/l/wall_ms", Skip); ("s/l/ce", Fail) ]
    (outcomes ~same_box:false c fresh);
  Alcotest.(check bool) "nothing timed" false
    (List.exists
       (fun (c : Rows.check) -> c.timed)
       (Rows.diff ~slack:1.6 ~inject:1. ~same_box:false ~committed:c ~fresh))

let test_missing () =
  let c = [ row ~gate:Exact "ce" 240.; row "ungated" 1. ] in
  check "gated row without a fresh one fails; ungated rows are ignored"
    [ ("s/l/ce", Fail) ] (outcomes c [])

let test_inject () =
  let c = [ row ~gate:Floor "el_per_s" 1600.; row ~gate:Ceiling "wall_ms" 100. ] in
  let fresh = [ row "el_per_s" 1600.; row "wall_ms" 100. ] in
  check "passes as measured" [ ("s/l/el_per_s", Pass); ("s/l/wall_ms", Pass) ]
    (outcomes c fresh);
  check "an injected 2x slowdown fails both"
    [ ("s/l/el_per_s", Fail); ("s/l/wall_ms", Fail) ]
    (outcomes ~inject:2. c fresh)

let test_self_test () =
  let fresh =
    [ row ~gate:Floor "el_per_s" 1600.; row ~gate:Ceiling "wall_ms" 100.; row ~gate:Exact "ce" 240. ]
  in
  let outcomes slack =
    List.map (fun (c : Rows.check) -> (c.row, c.outcome)) (Rows.self_test ~slack fresh)
  in
  check "2x injected into the readings themselves fails every timed row"
    [ ("self-test/s/l/el_per_s", Pass); ("self-test/s/l/wall_ms", Pass) ]
    (outcomes 1.6);
  check "a slack that absorbs 2x is caught"
    [ ("self-test/s/l/el_per_s", Fail); ("self-test/s/l/wall_ms", Fail) ]
    (outcomes 2.5);
  check "nothing to inject into fails"
    [ ("self-test", Fail) ]
    (List.map (fun (c : Rows.check) -> (c.row, c.outcome))
       (Rows.self_test ~slack:1.6 [ row ~gate:Exact "ce" 240. ]))

let test_json_roundtrip () =
  let rows = [ row ~gate:Exact "ce" 240.; row "ratio" 0.1; row ~gate:Ceiling "ms" 1e-3 ] in
  let text = Obs.Export.Json.to_string (Rows.document rows) in
  let header, parsed = Rows.parse text in
  Alcotest.(check bool) "rows survive the file" true (parsed = rows);
  Alcotest.(check bool) "box profile header" true
    (Option.is_some (Obs.Export.Json.member "cores" header))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "bench"
    [
      ( "differ",
        [
          tc "exact" `Quick test_exact;
          tc "floor" `Quick test_floor;
          tc "ceiling" `Quick test_ceiling;
          tc "other box" `Quick test_other_box;
          tc "missing fresh row" `Quick test_missing;
          tc "inject slowdown" `Quick test_inject;
          tc "self-test" `Quick test_self_test;
          tc "json roundtrip" `Quick test_json_roundtrip;
        ] );
    ]
