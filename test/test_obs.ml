(* Tests for the Obs telemetry library: runtime gating, metric
   registry semantics, histogram bucketing, span nesting, and the
   exporter round-trips. *)

module Metrics = Obs.Metrics
module Span = Obs.Span
module Export = Obs.Export

let with_enabled = Obs.Runtime.with_enabled

(* ------------------------------------------------------------------ *)
(* Runtime gating                                                      *)
(* ------------------------------------------------------------------ *)

let test_disabled_probes_are_noops () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.off.counter" in
  let g = Metrics.gauge ~registry:r "t.off.gauge" in
  let h = Metrics.histogram ~registry:r "t.off.hist" in
  Obs.Runtime.disable ();
  Metrics.incr c;
  Metrics.set g 42.;
  Metrics.observe h 7.;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Metrics.gauge_value g);
  let s = Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "histogram untouched" 0
    (match Metrics.find_histogram s "t.off.hist" with
    | Some h -> h.Metrics.count
    | None -> -1)

let test_with_enabled_restores () =
  Obs.Runtime.disable ();
  with_enabled (fun () ->
      Alcotest.(check bool) "enabled inside" true (Obs.Runtime.is_enabled ()));
  Alcotest.(check bool) "disabled after" false (Obs.Runtime.is_enabled ());
  Alcotest.(check bool) "restores even on raise" true
    (try
       with_enabled (fun () -> failwith "boom")
     with Failure _ -> not (Obs.Runtime.is_enabled ()))

(* ------------------------------------------------------------------ *)
(* Counters, gauges, reset                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_reset () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.c" in
  let g = Metrics.gauge ~registry:r "t.g" in
  let h = Metrics.histogram ~registry:r "t.h" in
  with_enabled (fun () ->
      Metrics.incr c;
      Metrics.incr ~by:41 c;
      Metrics.set g 2.5;
      Metrics.observe h 3.);
  Alcotest.(check int) "accumulated" 42 (Metrics.counter_value c);
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge zeroed" 0. (Metrics.gauge_value g);
  let s = Metrics.snapshot ~registry:r () in
  (match Metrics.find_histogram s "t.h" with
  | Some h ->
      Alcotest.(check int) "histogram count zeroed" 0 h.Metrics.count;
      Alcotest.(check (float 0.)) "histogram sum zeroed" 0. h.Metrics.sum
  | None -> Alcotest.fail "histogram vanished on reset");
  (* Instruments stay registered and usable after reset. *)
  with_enabled (fun () -> Metrics.incr c);
  Alcotest.(check int) "still wired" 1 (Metrics.counter_value c)

let test_name_type_clash () =
  let r = Metrics.create () in
  let _ = Metrics.counter ~registry:r "t.clash" in
  Alcotest.check_raises "same name, other type"
    (Invalid_argument "Metrics: \"t.clash\" already registered with another type")
    (fun () -> ignore (Metrics.gauge ~registry:r "t.clash"))

let test_find_same_instrument () =
  let r = Metrics.create () in
  let c1 = Metrics.counter ~registry:r "t.same" in
  let c2 = Metrics.counter ~registry:r "t.same" in
  with_enabled (fun () ->
      Metrics.incr c1;
      Metrics.incr c2);
  Alcotest.(check int) "one cell behind both handles" 2 (Metrics.counter_value c1)

(* ------------------------------------------------------------------ *)
(* Histogram bucket boundaries                                         *)
(* ------------------------------------------------------------------ *)

let bucket_count s name bound =
  match Metrics.find_histogram s name with
  | None -> Alcotest.fail ("no histogram " ^ name)
  | Some h -> (
      match List.assoc_opt bound h.Metrics.buckets with
      | Some n -> n
      | None -> Alcotest.fail (Printf.sprintf "no bucket with bound %g" bound))

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "t.buckets" in
  with_enabled (fun () ->
      List.iter (Metrics.observe h)
        [ 0.5; 1.0 (* both land in the 2^0 bucket *); 1.5; 2.0 (* 2^1 *);
          2.0001 (* 2^2 *); 1024. (* 2^10, exactly on the bound *) ]);
  let s = Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "<= 1" 2 (bucket_count s "t.buckets" 1.);
  Alcotest.(check int) "<= 2" 2 (bucket_count s "t.buckets" 2.);
  Alcotest.(check int) "<= 4" 1 (bucket_count s "t.buckets" 4.);
  Alcotest.(check int) "<= 1024 (on the boundary)" 1 (bucket_count s "t.buckets" 1024.);
  (match Metrics.find_histogram s "t.buckets" with
  | Some hs ->
      Alcotest.(check int) "count" 6 hs.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 1031.0001 hs.Metrics.sum;
      Alcotest.(check (float 0.)) "max" 1024. hs.Metrics.max_value
  | None -> assert false);
  (* Overflow: beyond the last power-of-two bound. *)
  with_enabled (fun () -> Metrics.observe h (Float.ldexp 1. 45));
  let s = Metrics.snapshot ~registry:r () in
  Alcotest.(check int) "overflow bucket" 1 (bucket_count s "t.buckets" infinity)

let test_bucket_bounds_shape () =
  let b = Metrics.bucket_bounds in
  Alcotest.(check (float 0.)) "first bound" 1. b.(0);
  Alcotest.(check bool) "strictly increasing powers of two" true
    (Array.for_all
       (fun i -> b.(i) = 2. *. b.(i - 1))
       (Array.init (Array.length b - 1) (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Span nesting                                                        *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let result, roots =
    with_enabled (fun () ->
        Span.collect (fun () ->
            Span.with_ "root" (fun () ->
                Span.with_ "child-a"
                  ~attrs:[ ("k", "v") ]
                  (fun () -> Span.with_ "grandchild" (fun () -> ()));
                Span.with_ "child-b" (fun () -> ()));
            17))
  in
  Alcotest.(check int) "result threads through" 17 result;
  Alcotest.(check int) "one root" 1 (List.length roots);
  let root = List.hd roots in
  Alcotest.(check string) "root name" "root" (Span.name root);
  let children = Span.children root in
  Alcotest.(check (list string)) "children in order" [ "child-a"; "child-b" ]
    (List.map Span.name children);
  let child_a = List.hd children in
  Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ]
    (Span.attrs child_a);
  Alcotest.(check (list string)) "grandchild under child-a" [ "grandchild" ]
    (List.map Span.name (Span.children child_a));
  (* Durations nest: parent >= each child. *)
  Alcotest.(check bool) "parent covers child" true
    (Span.dur_ns root >= Span.dur_ns child_a)

let test_span_exception_safe () =
  let roots =
    with_enabled (fun () ->
        Span.start_trace ();
        (try Span.with_ "outer" (fun () -> failwith "inner crash")
         with Failure _ -> ());
        Span.stop_trace ())
  in
  Alcotest.(check (list string)) "span closed despite raise" [ "outer" ]
    (List.map Span.name roots)

let test_span_without_trace () =
  (* No trace installed: with_ must be a pass-through. *)
  Alcotest.(check int) "plain call" 5 (Span.with_ "ghost" (fun () -> 5));
  Alcotest.(check bool) "not tracing" false (Span.tracing ())

let test_spans_across_threads () =
  let _, roots =
    with_enabled (fun () ->
        Span.collect (fun () ->
            let t =
              Thread.create
                (fun () -> Span.with_ "thread-root" (fun () -> Thread.yield ()))
                ()
            in
            Span.with_ "main-root" (fun () -> ());
            Thread.join t))
  in
  let names = List.sort String.compare (List.map Span.name roots) in
  Alcotest.(check (list string)) "one root per thread" [ "main-root"; "thread-root" ]
    names;
  let by_name n = List.find (fun s -> Span.name s = n) roots in
  Alcotest.(check bool) "distinct thread ids" true
    (Span.thread (by_name "main-root") <> Span.thread (by_name "thread-root"))

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let rec span_equal a b =
  Span.name a = Span.name b
  && Span.attrs a = Span.attrs b
  && Span.thread a = Span.thread b
  && Span.start_ns a = Span.start_ns b
  && Span.dur_ns a = Span.dur_ns b
  && List.length (Span.children a) = List.length (Span.children b)
  && List.for_all2 span_equal (Span.children a) (Span.children b)

let test_jsonl_span_roundtrip () =
  (* Hand-built forest with an int64 timestamp beyond 2^53 to make sure
     the raw-literal JSON numbers preserve it exactly. *)
  let leaf =
    Span.make ~name:"leaf" ~attrs:[ ("n", "3") ] ~thread:7
      ~start_ns:9_007_199_254_740_993L ~dur_ns:12L ~children:[]
  in
  let root =
    Span.make ~name:"root" ~attrs:[] ~thread:7 ~start_ns:9_007_199_254_740_990L
      ~dur_ns:100L ~children:[ leaf ]
  in
  let lone =
    Span.make ~name:"lone" ~attrs:[ ("x", "y"); ("z", "w") ] ~thread:8 ~start_ns:5L
      ~dur_ns:0L ~children:[]
  in
  let text = Export.jsonl (Export.span_events [ root; lone ]) in
  let rebuilt = Export.spans_of_events (Export.events_of_jsonl text) in
  Alcotest.(check int) "two roots" 2 (List.length rebuilt);
  Alcotest.(check bool) "forest preserved" true
    (List.for_all2 span_equal [ root; lone ] rebuilt)

let test_jsonl_snapshot_roundtrip () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.rt.counter" in
  let g = Metrics.gauge ~registry:r "t.rt.gauge" in
  let h = Metrics.histogram ~registry:r "t.rt.hist" in
  with_enabled (fun () ->
      Metrics.incr ~by:3 c;
      Metrics.set g 1.5;
      Metrics.observe h 2.;
      Metrics.observe h 300.);
  let events = Export.snapshot_events (Metrics.snapshot ~registry:r ()) in
  let rebuilt = Export.events_of_jsonl (Export.jsonl events) in
  Alcotest.(check int) "same number of events" (List.length events)
    (List.length rebuilt);
  Alcotest.(check string) "events identical" (Export.jsonl events)
    (Export.jsonl rebuilt)

let test_jsonl_rejects_garbage () =
  Alcotest.(check bool) "malformed line raises" true
    (try
       ignore (Export.events_of_jsonl "{\"type\":\"span\",\"id\":");
       false
     with Export.Parse_error _ | Export.Json.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Prometheus exporter                                                 *)
(* ------------------------------------------------------------------ *)

let test_prometheus_format () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.prom.counter" in
  let h = Metrics.histogram ~registry:r "t.prom.hist" in
  with_enabled (fun () ->
      Metrics.incr ~by:5 c;
      Metrics.observe h 3.);
  let text = Export.prometheus (Metrics.snapshot ~registry:r ()) in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (has "t_prom_counter 5");
  Alcotest.(check bool) "histogram count" true (has "t_prom_hist_count 1");
  Alcotest.(check bool) "+Inf bucket" true (has "le=\"+Inf\"")

let has_sub text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  go 0

let test_prometheus_bucket_boundaries () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "t.promb" in
  (* Observations exactly on power-of-two bounds land in that bound's
     bucket; prometheus buckets are cumulative. *)
  with_enabled (fun () -> List.iter (Metrics.observe h) [ 1.; 2.; 2.; 4. ]);
  let text = Export.prometheus (Metrics.snapshot ~registry:r ()) in
  Alcotest.(check bool) "le=1 cumulative 1" true (has_sub text "t_promb_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "le=2 cumulative 3" true (has_sub text "t_promb_bucket{le=\"2\"} 3");
  Alcotest.(check bool) "le=4 cumulative 4" true (has_sub text "t_promb_bucket{le=\"4\"} 4");
  Alcotest.(check bool) "+Inf cumulative 4" true (has_sub text "t_promb_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "count 4" true (has_sub text "t_promb_count 4")

let test_prometheus_zero_observation_series () =
  (* A registered-but-never-observed instrument must still export: a
     scrape that silently drops idle series can't tell "no work" from
     "no instrumentation". *)
  let r = Metrics.create () in
  let _ = Metrics.counter ~registry:r "t.zero.counter" in
  let _ = Metrics.histogram ~registry:r "t.zero.hist" in
  let text = Export.prometheus (Metrics.snapshot ~registry:r ()) in
  Alcotest.(check bool) "counter at 0" true (has_sub text "t_zero_counter 0");
  Alcotest.(check bool) "histogram count at 0" true (has_sub text "t_zero_hist_count 0");
  Alcotest.(check bool) "+Inf bucket at 0" true
    (has_sub text "t_zero_hist_bucket{le=\"+Inf\"} 0")

let test_concurrent_pool_increments () =
  (* Counter increments from pool worker domains must not lose updates;
     ~force:true spawns real domains even on a single-core box. *)
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "t.pool.counter" in
  let items = 1_000 in
  let p = Parallel.Pool.create ~chunk:16 ~force:true 4 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown p)
    (fun () ->
      with_enabled (fun () ->
          ignore
            (Parallel.Pool.map p
               (fun i ->
                 Metrics.incr c;
                 i)
               (List.init items Fun.id))));
  Alcotest.(check int) "no lost increments" items (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Attr escaping: arbitrary bytes must round-trip the JSONL exporter    *)
(* ------------------------------------------------------------------ *)

let nasty_string =
  (* Newlines, quotes, backslashes, control chars, and non-ASCII bytes:
     everything that has ever broken a hand-rolled JSON layer. *)
  QCheck.(
    string_gen_of_size (Gen.int_range 0 40)
      (Gen.frequency
         [
           (4, Gen.printable);
           (2, Gen.oneofl [ '\n'; '\r'; '\t'; '"'; '\\'; '\x00'; '\x1f' ]);
           (2, Gen.char_range '\x80' '\xff');
         ]))

let qcheck_attr_roundtrip =
  QCheck.Test.make ~name:"jsonl attr escaping round-trips" ~count:200
    QCheck.(pair nasty_string nasty_string)
    (fun (k, v) ->
      let span =
        Span.make ~name:"q" ~attrs:[ ("k" ^ k, v) ] ~thread:1 ~start_ns:1L
          ~dur_ns:1L ~children:[]
      in
      let text = Export.jsonl (Export.span_events [ span ]) in
      match Export.spans_of_events (Export.events_of_jsonl text) with
      | [ s ] -> Span.attrs s = [ ("k" ^ k, v) ]
      | _ -> false)

let test_unicode_escape_parsing () =
  (* \u escapes decode to UTF-8; broken escapes raise Parse_error (not
     a stray Failure from int_of_string). *)
  let str s =
    match Export.Json.of_string s with
    | Export.Json.Obj [ ("k", Export.Json.Str v) ] -> v
    | _ -> Alcotest.fail ("unexpected parse of " ^ s)
  in
  Alcotest.(check string) "ascii escape" "A" (str "{\"k\":\"\\u0041\"}");
  Alcotest.(check string) "2-byte utf-8" "\xc3\xa9" (str "{\"k\":\"\\u00e9\"}");
  Alcotest.(check string) "3-byte utf-8" "\xe2\x82\xac" (str "{\"k\":\"\\u20ac\"}");
  let rejects s =
    match Export.Json.of_string s with
    | exception Export.Json.Parse_error _ -> true
    | exception _ -> false
    | _ -> false
  in
  Alcotest.(check bool) "non-hex digits" true (rejects "{\"k\":\"\\uZZ12\"}");
  Alcotest.(check bool) "truncated escape" true (rejects "{\"k\":\"\\u00\"}");
  Alcotest.(check bool) "surrogate half" true (rejects "{\"k\":\"\\ud800\"}")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let with_ring ?capacity f =
  Obs.Ring.install ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Ring.set_sink None;
      Obs.Ring.uninstall ())
    f

let test_ring_wraps () =
  with_ring ~capacity:4 (fun () ->
      for i = 1 to 10 do
        Obs.Ring.note (Printf.sprintf "n%d" i)
      done;
      let events = Obs.Ring.dump () in
      Alcotest.(check int) "keeps only the last capacity events" 4
        (List.length events);
      let notes =
        List.filter_map
          (fun (e : Obs.Ring.event) ->
            match e.Obs.Ring.kind with Obs.Ring.Note n -> Some n | _ -> None)
          events
      in
      Alcotest.(check (list string)) "latest notes, oldest first"
        [ "n7"; "n8"; "n9"; "n10" ] notes)

let test_ring_trip_sink () =
  let dumped = ref [] in
  with_ring (fun () ->
      Obs.Ring.set_sink (Some (fun events -> dumped := events));
      Obs.Ring.note "before";
      Obs.Ring.trip "forensic dump";
      let kinds =
        List.filter_map
          (fun (e : Obs.Ring.event) ->
            match e.Obs.Ring.kind with Obs.Ring.Note n -> Some n | _ -> None)
          !dumped
      in
      Alcotest.(check (list string)) "sink saw the trail, reason last"
        [ "before"; "forensic dump" ] kinds)

let test_ring_records_spans_and_counts () =
  with_ring (fun () ->
      (* Spans bracket into the ring even with no trace collector
         installed — that is the always-on part of the flight recorder. *)
      Span.with_ "ringed" (fun () -> ());
      let r = Metrics.create () in
      let c = Metrics.counter ~registry:r "t.ring.counter" in
      with_enabled (fun () -> Metrics.incr ~by:2 c);
      let kinds = List.map (fun (e : Obs.Ring.event) -> e.Obs.Ring.kind) (Obs.Ring.dump ()) in
      Alcotest.(check bool) "enter recorded" true
        (List.mem (Obs.Ring.Enter "ringed") kinds);
      Alcotest.(check bool) "exit recorded" true
        (List.exists
           (function Obs.Ring.Exit ("ringed", _) -> true | _ -> false)
           kinds);
      Alcotest.(check bool) "count recorded" true
        (List.mem (Obs.Ring.Count ("t.ring.counter", 2)) kinds))

(* ------------------------------------------------------------------ *)
(* Trace context, headers, chrome export, merge                        *)
(* ------------------------------------------------------------------ *)

let with_context ~trace_id ~party f =
  Obs.Context.set_trace_id trace_id;
  Obs.Context.set_party party;
  Fun.protect ~finally:Obs.Context.clear f

let test_context_stamps_roots () =
  with_context ~trace_id:"cafe" ~party:"R" (fun () ->
      let _, roots =
        with_enabled (fun () ->
            Span.collect (fun () ->
                Span.with_ "root" (fun () -> Span.with_ "child" (fun () -> ()))))
      in
      let root = List.hd roots in
      Alcotest.(check (option string)) "trace id on root" (Some "cafe")
        (List.assoc_opt Obs.Context.trace_id_attr (Span.attrs root));
      Alcotest.(check (option string)) "party on root" (Some "R")
        (List.assoc_opt Obs.Context.party_attr (Span.attrs root));
      (* Children inherit structurally; no per-span stamping. *)
      let child = List.hd (Span.children root) in
      Alcotest.(check (option string)) "child not stamped" None
        (List.assoc_opt Obs.Context.trace_id_attr (Span.attrs child)))

(* Party labels and open-span stacks are keyed on [Thread.id]. A party
   may run on a domain of its own, so ids must stay distinct across
   domains: each domain's root span carries its own party and holds
   its own children, while the caller's label is untouched. *)
let test_context_across_domains () =
  with_context ~trace_id:"d0d0" ~party:"R" (fun () ->
      let ids, roots =
        with_enabled (fun () ->
            Span.collect (fun () ->
                let party label () =
                  Obs.Context.set_party label;
                  Span.with_ ("party-" ^ label) (fun () ->
                      Span.with_ ("inner-" ^ label) (fun () -> Thread.delay 0.01));
                  (Thread.id (Thread.self ()), Obs.Context.party ())
                in
                let domains = List.map (fun l -> Domain.spawn (party l)) [ "S"; "T"; "U" ] in
                let mine = party "R" () in
                mine :: List.map Domain.join domains))
      in
      let tids = List.map fst ids in
      Alcotest.(check int) "thread ids distinct across domains" 4
        (List.length (List.sort_uniq compare tids));
      Alcotest.(check (list (option string))) "each domain reads its own label"
        [ Some "R"; Some "S"; Some "T"; Some "U" ] (List.map snd ids);
      Alcotest.(check (option string)) "caller's label untouched" (Some "R")
        (Obs.Context.party ());
      List.iter2
        (fun label tid ->
          match List.find_opt (fun r -> Span.name r = "party-" ^ label) roots with
          | None -> Alcotest.failf "no root for party %s" label
          | Some root ->
              Alcotest.(check (option string)) ("party on root " ^ label) (Some label)
                (List.assoc_opt Obs.Context.party_attr (Span.attrs root));
              Alcotest.(check int) ("root thread " ^ label) tid (Span.thread root);
              Alcotest.(check (list string)) ("children of " ^ label) [ "inner-" ^ label ]
                (List.map Span.name (Span.children root)))
        [ "R"; "S"; "T"; "U" ] tids)

let test_trace_header_roundtrip () =
  Alcotest.(check bool) "no context, no header" true
    (Obs.Context.clear ();
     Export.trace_header () = None);
  with_context ~trace_id:"feed" ~party:"S" (fun () ->
      match Export.trace_header () with
      | None -> Alcotest.fail "header missing with context set"
      | Some h -> (
          match Export.events_of_jsonl (Export.jsonl [ h ]) with
          | [ Export.Header_event { version; trace_id; party } ] ->
              Alcotest.(check int) "version" Export.trace_header_version version;
              Alcotest.(check string) "trace id" "feed" trace_id;
              Alcotest.(check string) "party" "S" party
          | _ -> Alcotest.fail "header did not round-trip"))

let test_chrome_trace_structure () =
  let span =
    Span.make ~name:"work" ~attrs:[ ("k", "v") ] ~thread:3 ~start_ns:2_000L
      ~dur_ns:1_000L ~children:[]
  in
  let doc =
    Export.chrome_trace
      [ ("R", Export.span_events [ span ]); ("S", Export.span_events [ span ]) ]
  in
  (* Must itself be valid JSON with the trace-event envelope. *)
  (match Export.Json.of_string doc with
  | Export.Json.Obj fields ->
      Alcotest.(check bool) "traceEvents array" true
        (match List.assoc_opt "traceEvents" fields with
        | Some (Export.Json.Arr _) -> true
        | _ -> false)
  | _ -> Alcotest.fail "chrome trace is not a JSON object");
  Alcotest.(check bool) "process metadata" true (has_sub doc "process_name");
  Alcotest.(check bool) "duration slices" true (has_sub doc "\"ph\":\"X\"");
  Alcotest.(check bool) "both parties" true
    (has_sub doc "\"pid\":1" && has_sub doc "\"pid\":2")

(* Two synthetic party streams: same trace id, clocks skewed by 1ms,
   each with a handshake span and a wire child under the root. *)
let mk_stream ~party ~skew_ns =
  let base = Int64.add 1_000_000L skew_ns in
  let at off = Int64.add base off in
  let handshake =
    Span.make ~name:"handshake" ~attrs:[] ~thread:1 ~start_ns:(at 0L)
      ~dur_ns:100_000L ~children:[]
  in
  let wire =
    Span.make ~name:"wire/recv" ~attrs:[] ~thread:1 ~start_ns:(at 150_000L)
      ~dur_ns:200_000L ~children:[]
  in
  let root =
    Span.make ~name:("party:" ^ party)
      ~attrs:[ (Obs.Context.trace_id_attr, "beef"); (Obs.Context.party_attr, party) ]
      ~thread:1 ~start_ns:(at 0L) ~dur_ns:500_000L
      ~children:[ handshake; wire ]
  in
  let header = Export.Header_event
      { version = Export.trace_header_version; trace_id = "beef"; party }
  in
  let counters =
    [
      Export.Counter_event { name = "pool.items"; value = (if party = "R" then 7 else 0) };
      Export.Counter_event { name = "leakage.key.abc.runs"; value = 2 };
    ]
  in
  Export.jsonl ((header :: Export.span_events [ root ]) @ counters)

let test_merge_two_streams () =
  let m =
    Obs.Merge.of_files
      [ ("r.jsonl", mk_stream ~party:"R" ~skew_ns:0L);
        ("s.jsonl", mk_stream ~party:"S" ~skew_ns:1_000_000L) ]
  in
  Alcotest.(check (list string)) "one shared trace" [ "beef" ] m.Obs.Merge.traces;
  Alcotest.(check (list string)) "both parties labelled" [ "R"; "S" ]
    (List.map (fun p -> p.Obs.Merge.p_label) m.Obs.Merge.parties);
  Alcotest.(check int) "no orphans" 0 (Obs.Merge.total_orphans m);
  (* Clock alignment: S's handshake midpoint must now equal R's, so the
     1ms skew shows up as a -1ms shift on S. *)
  let s = List.find (fun p -> p.Obs.Merge.p_label = "S") m.Obs.Merge.parties in
  Alcotest.(check int64) "skew recovered" (-1_000_000L) s.Obs.Merge.p_offset_ns;
  (* Steps carry the wire-wait attribution. *)
  let root_step =
    List.find
      (fun st -> st.Obs.Merge.s_party = "R" && st.Obs.Merge.s_path = "party:R")
      m.Obs.Merge.steps
  in
  Alcotest.(check int64) "wire wait summed" 200_000L root_step.Obs.Merge.s_wire_ns;
  (* Zero-valued counters are dropped from attribution; leakage rows are
     de-duplicated across parties by max. *)
  Alcotest.(check (list (triple string string int))) "attribution skips zeros"
    [ ("R", "pool.items", 7) ]
    (Obs.Merge.attribution m);
  Alcotest.(check (list (pair string int))) "leakage deduped"
    [ ("leakage.key.abc.runs", 2) ]
    (Obs.Merge.leakage m)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_compare () =
  let c =
    Obs.Report.compare ~label:"x" ~predicted_ce:100. ~observed_ce:100.
      ~predicted_bits:1000. ~observed_bits:1050. ()
  in
  Alcotest.(check (float 0.)) "exact ce" 0. c.Obs.Report.ce_rel_error;
  Alcotest.(check (float 1e-9)) "5% bits" 0.05 c.Obs.Report.bits_rel_error;
  Alcotest.(check bool) "within default 10%" true c.Obs.Report.within_tolerance;
  let c =
    Obs.Report.compare ~tolerance:0.01 ~label:"x" ~predicted_ce:100. ~observed_ce:100.
      ~predicted_bits:1000. ~observed_bits:1050. ()
  in
  Alcotest.(check bool) "beyond tight tolerance" false c.Obs.Report.within_tolerance;
  let c =
    Obs.Report.compare ~label:"x" ~predicted_ce:0. ~observed_ce:3. ~predicted_bits:1.
      ~observed_bits:1. ()
  in
  Alcotest.(check bool) "zero prediction, nonzero observation" true
    (c.Obs.Report.ce_rel_error = infinity && not c.Obs.Report.within_tolerance)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "runtime",
        [
          Alcotest.test_case "disabled probes are no-ops" `Quick
            test_disabled_probes_are_noops;
          Alcotest.test_case "with_enabled restores" `Quick test_with_enabled_restores;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter reset" `Quick test_counter_reset;
          Alcotest.test_case "name/type clash" `Quick test_name_type_clash;
          Alcotest.test_case "same name, same cell" `Quick test_find_same_instrument;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "bucket bounds shape" `Quick test_bucket_bounds_shape;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "no trace, no overhead" `Quick test_span_without_trace;
          Alcotest.test_case "one subtree per thread" `Quick test_spans_across_threads;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl span round-trip" `Quick test_jsonl_span_roundtrip;
          Alcotest.test_case "jsonl snapshot round-trip" `Quick
            test_jsonl_snapshot_roundtrip;
          Alcotest.test_case "jsonl rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_format;
          Alcotest.test_case "prometheus bucket boundaries" `Quick
            test_prometheus_bucket_boundaries;
          Alcotest.test_case "prometheus zero-observation series" `Quick
            test_prometheus_zero_observation_series;
          Alcotest.test_case "concurrent pool increments" `Quick
            test_concurrent_pool_increments;
          QCheck_alcotest.to_alcotest qcheck_attr_roundtrip;
          Alcotest.test_case "unicode escape parsing" `Quick
            test_unicode_escape_parsing;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraps at capacity" `Quick test_ring_wraps;
          Alcotest.test_case "trip reaches the sink" `Quick test_ring_trip_sink;
          Alcotest.test_case "records spans and counts" `Quick
            test_ring_records_spans_and_counts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "context stamps roots" `Quick test_context_stamps_roots;
          Alcotest.test_case "context and spans per thread across domains" `Quick
            test_context_across_domains;
          Alcotest.test_case "trace header round-trip" `Quick
            test_trace_header_roundtrip;
          Alcotest.test_case "chrome trace structure" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "merge two streams" `Quick test_merge_two_streams;
        ] );
      ("report", [ Alcotest.test_case "compare" `Quick test_report_compare ]);
    ]
