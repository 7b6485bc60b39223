(* Command-line driver: run the four protocols over CSV tables, generate
   synthetic workloads, and print cost estimates.

   Examples:
     psi_demo gen-medical --patients 500 --out-r /tmp/tr.csv --out-s /tmp/ts.csv
     psi_demo medical --table-r /tmp/tr.csv --table-s /tmp/ts.csv
     psi_demo intersect --op size --csv-s s.csv --csv-r r.csv --attr email
     psi_demo estimate --op equijoin --vs 1000000 --vr 1000000
*)

open Cmdliner

let group_names = List.map (fun n -> (Crypto.Group.name_to_string n, n)) Crypto.Group.all_names

let group_arg =
  let doc =
    Printf.sprintf "Named group to use (%s)."
      (String.concat ", " (List.map fst group_names))
  in
  Arg.(value & opt (enum group_names) Crypto.Group.Test256 & info [ "group" ] ~doc)

let seed_arg =
  Arg.(value & opt string "psi-demo" & info [ "seed" ] ~doc:"Deterministic RNG seed.")

(* Validated at parse time: a pool of zero (or negative) workers is a
   usage error, not a silent fall-through to the sequential path. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "--jobs must be at least 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "--jobs expects an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value
       & opt jobs_conv (Parallel.Pool.default_jobs ())
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the bulk hash/encryption steps (defaults to \
                 the machine's available cores; minimum 1). Results are identical \
                 at every setting; only wall-clock changes.")

(* Validated at parse time like --jobs: a bucket count outside the
   planner's accepted range is a usage error with a typed message, not a
   runtime Invalid_argument out of Shard.plan. *)
let buckets_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Psi.Shard.max_buckets -> Ok n
    | Some n ->
        Error
          (`Msg
             (Printf.sprintf "--buckets must be in 1..%d, got %d" Psi.Shard.max_buckets n))
    | None -> Error (`Msg (Printf.sprintf "--buckets expects an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let buckets_arg =
  Arg.(value
       & opt buckets_conv 1
       & info [ "buckets" ] ~docv:"K"
           ~doc:"Shard each set into $(docv) hash-prefix buckets and run the \
                 protocol as $(docv) pipelined sub-protocols with bounded peak \
                 memory (1 = the classic monolithic path). Results are identical \
                 at every setting; the transcript additionally reveals the \
                 per-bucket set sizes (see docs/PROTOCOLS.md, \"Sharding and \
                 leakage\").")

let spill_dir_conv =
  let parse s =
    if s = "" then Error (`Msg "--spill-dir expects a directory path, got \"\"")
    else if Sys.file_exists s && not (Sys.is_directory s) then
      Error (`Msg (Printf.sprintf "--spill-dir %S exists and is not a directory" s))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let spill_dir_arg =
  Arg.(value
       & opt (some spill_dir_conv) None
       & info [ "spill-dir" ] ~docv:"DIR"
           ~doc:"Root the sharded run's on-disk state (bucket spill files and \
                 per-bucket checkpoints) under $(docv), created on demand. \
                 With --buckets K > 1, buckets then stream from disk one at a \
                 time — peak memory O(n/K) — and a killed run resumes at its \
                 first unfinished bucket. At --buckets 1 the run is the \
                 monolithic protocol and leaves $(docv) untouched.")

(* The bucket plan, printed under --trace next to the worker report:
   K = 1 is the monolithic run whatever --spill-dir says, and K buckets
   over an empty spill still run K (empty) sub-protocols. *)
let report_buckets ~trace buckets spill_dir =
  if trace then
    if buckets = 1 then
      Printf.eprintf "buckets: requested 1, effective 1 — monolithic path%s\n%!"
        (if spill_dir = None then "" else " (--spill-dir unused)")
    else
      Printf.eprintf "buckets: requested %d, effective %d — sharded path%s\n%!" buckets
        buckets
        (match spill_dir with
        | None -> " (in-memory partitions)"
        | Some d -> Printf.sprintf " (spill: %s)" d)

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Collect telemetry during the run and print the span tree \
                 (per party and protocol phase) plus counters to stderr. Also \
                 installs the flight recorder: the last telemetry events are \
                 dumped to stderr on a fatal exception or SIGUSR1.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write this run's telemetry to $(docv) as JSONL: a versioned \
                 trace header (handshake-derived trace_id and party), the span \
                 events, and the final counter snapshot. Feed both parties' \
                 files to psi_trace to merge them into one timeline. Implies \
                 telemetry collection even without --trace.")

(* What the pool will actually do with the requested --jobs: Pool.create
   degrades to the sequential path for a single worker or a single-core
   host. Printed under --trace (stderr) so ~1x wall-clock on a 1-core
   box is explainable rather than mistaken for a regression. *)
let report_workers ~trace jobs =
  if trace then begin
    let cores = Parallel.Pool.default_jobs () in
    let effective = if jobs <= 1 || cores <= 1 then 1 else jobs in
    Printf.eprintf "workers: requested %d, effective %d (%d core%s available)%s\n%!" jobs
      effective cores
      (if cores = 1 then "" else "s")
      (if effective = 1 then " — sequential path" else "")
  end

(* Which Montgomery kernel plan the group's context selected (limb
   count, unrolled or not): it only changes wall-clock, never the wire,
   so the choice is invisible everywhere except here and the bench
   rows. Printed under --trace next to the workers line. *)
let report_kernel ~trace g =
  if trace then
    Printf.eprintf "kernel: %s (modulus %d bits)\n%!" (Crypto.Group.kernel_name g)
      (Crypto.Group.modulus_bits g)

(* Wrap a command body in span collection; the report goes to stderr so
   stdout stays pipeable. With [out] set, the run's telemetry (header +
   spans + counters) is also written as JSONL for psi_trace. While
   tracing, a flight recorder rides along: its recent-event window is
   dumped to stderr if the run dies (or on SIGUSR1). *)
let with_trace ?out trace f =
  if (not trace) && out = None then f ()
  else begin
    Obs.Context.clear ();
    Obs.Ring.install ();
    Obs.Ring.set_sink
      (Some (fun events -> prerr_string (Format.asprintf "%a" Obs.Ring.pp events)));
    Obs.Ring.install_signal Sys.sigusr1;
    let r, roots, snapshot =
      match Obs.trace f with
      | v -> v
      | exception e ->
          Obs.Ring.trip "psi_demo: fatal exception";
          Obs.Ring.uninstall ();
          raise e
    in
    Obs.Ring.uninstall ();
    (match out with
    | None -> ()
    | Some path ->
        let events =
          (match Obs.Export.trace_header () with Some h -> [ h ] | None -> [])
          @ Obs.Export.span_events roots
          @ Obs.Export.snapshot_events snapshot
        in
        let oc = open_out path in
        output_string oc (Obs.Export.jsonl events);
        close_out oc);
    if trace then begin
      Format.eprintf "@.== span tree ==@.%a" Obs.Export.pp_tree roots;
      Format.eprintf "@.== counters ==@.";
      List.iter
        (fun (name, v) -> Format.eprintf "%-40s %d@." name v)
        snapshot.Obs.Metrics.counters
    end;
    r
  end

let values_of_csv path attr =
  let t = Minidb.Csv.load path in
  List.map Minidb.Value.key (Minidb.Table.distinct_values t attr)

let multiset_of_csv path attr =
  let t = Minidb.Csv.load path in
  List.filter_map
    (fun v -> if v = Minidb.Value.Null then None else Some (Minidb.Value.key v))
    (Minidb.Table.column_values t attr)

let records_of_csv path attr =
  let t = Minidb.Csv.load path in
  List.filter_map
    (fun row ->
      let v = Minidb.Table.get t row attr in
      if v = Minidb.Value.Null then None
      else begin
        let payload =
          String.concat "," (Array.to_list (Array.map Minidb.Value.to_string row))
        in
        Some (Minidb.Value.key v, payload)
      end)
    (Minidb.Table.rows t)

(* ------------------------------------------------------------------ *)
(* intersect                                                           *)
(* ------------------------------------------------------------------ *)

type op = Op_intersection | Op_size | Op_join | Op_join_size

let op_arg =
  let ops =
    [
      ("intersection", Op_intersection);
      ("size", Op_size);
      ("equijoin", Op_join);
      ("join-size", Op_join_size);
    ]
  in
  Arg.(value & opt (enum ops) Op_intersection & info [ "op" ] ~doc:"Operation to run.")

let csv_s_arg =
  Arg.(required & opt (some file) None & info [ "csv-s" ] ~doc:"Sender's CSV table.")

let csv_r_arg =
  Arg.(required & opt (some file) None & info [ "csv-r" ] ~doc:"Receiver's CSV table.")

let attr_arg =
  Arg.(value & opt string "id" & info [ "attr" ] ~doc:"Join attribute column name.")

let report_traffic (o_total : int) = Printf.printf "wire traffic: %d bytes\n" o_total

(* The executor op for a CSV operation; the side whose table this
   process does not hold ([None]) is empty. *)
let csv_op op ~csv_s ~csv_r attr =
  let side load = function Some csv -> load csv attr | None -> [] in
  match op with
  | Op_intersection ->
      Psi.Shard.Intersect
        { s_values = side values_of_csv csv_s; r_values = side values_of_csv csv_r }
  | Op_size ->
      Psi.Shard.Intersect_size
        { s_values = side values_of_csv csv_s; r_values = side values_of_csv csv_r }
  | Op_join ->
      Psi.Shard.Equijoin
        { s_records = side records_of_csv csv_s; r_values = side values_of_csv csv_r }
  | Op_join_size ->
      Psi.Shard.Equijoin_size
        { s_values = side multiset_of_csv csv_s; r_values = side multiset_of_csv csv_r }

(* The one result printer, fed the receiver's result with |V_S| as R
   learned it and |V_R| as S learned it: every execution path (cached,
   sharded, monolithic, networked) is byte-identical on stdout
   (asserted by tools/cache_smoke.sh, shard_smoke.sh and net_smoke.sh). *)
let print_result op (result, v_s, v_r) =
  match (op, result) with
  | Op_intersection, Psi.Shard.Values inter ->
      Printf.printf "|V_S| = %d, |V_R| = %d, |V_S ∩ V_R| = %d\n" v_s v_r (List.length inter);
      List.iter (Printf.printf "%s\n") inter
  | Op_size, Psi.Shard.Size sz ->
      Printf.printf "|V_S ∩ V_R| = %d (|V_S| = %d, |V_R| = %d)\n" sz v_s v_r
  | Op_join, Psi.Shard.Matches matches ->
      List.iter
        (fun (v, recs) ->
          Printf.printf "%s:\n" v;
          List.iter (Printf.printf "  %s\n") recs)
        matches;
      Printf.printf "%d joining value(s); |V_S| = %d\n" (List.length matches) v_s
  | Op_join_size, Psi.Shard.Size sz -> Printf.printf "|T_S >< T_R| = %d\n" sz
  | _ -> failwith "psi_demo: unexpected result shape"

(* One session over both tables: with --cache DIR through
   Session.run_incremental, so repeat runs against slowly-changing CSVs
   only pay crypto for the delta (the cache diagnostics go to stderr
   behind --delta); otherwise Session.run. --buckets picks the shard
   plan either way. *)
let run_intersect group seed jobs buckets spill_dir op csv_s csv_r attr cache delta
    fresh_keys trace trace_out =
  let cfg = Psi.Protocol.config ~workers:jobs ~domain:("csv:" ^ attr) (Crypto.Group.named group) in
  report_workers ~trace jobs;
  report_kernel ~trace (Crypto.Group.named group);
  report_buckets ~trace buckets spill_dir;
  with_trace ?out:trace_out trace @@ fun () ->
  let shard = Psi.Shard.plan ?state_dir:spill_dir ~buckets () in
  let ops = [ csv_op op ~csv_s:(Some csv_s) ~csv_r:(Some csv_r) attr ] in
  let report, incremental =
    match cache with
    | Some dir ->
        let keys = if fresh_keys then `Fresh else `Cached in
        let r = Psi.Session.run_incremental cfg ~seed ~keys ~shard ~cache_dir:dir ops () in
        (r.Psi.Session.report, Some r.Psi.Session.incremental)
    | None -> (Psi.Session.run cfg ~seed ~shard ops (), None)
  in
  (match report with
  | { Psi.Session.results = [ res ]; peer_sizes = [ (v_s, v_r) ]; total_bytes; _ } ->
      print_result op (res, v_s, v_r);
      report_traffic total_bytes
  | _ -> failwith "psi_demo: unexpected session result count");
  match incremental with
  | Some i when delta ->
      Printf.eprintf "ecache: run=%d cold=%b hits=%d misses=%d added=%d removed=%d unchanged=%d\n"
        i.Psi.Session.run_id i.Psi.Session.cold i.Psi.Session.hits i.Psi.Session.misses
        i.Psi.Session.added i.Psi.Session.removed i.Psi.Session.unchanged
  | _ -> ()

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR"
           ~doc:"Persist per-element crypto work (and a run snapshot) under \
                 $(docv), making repeat runs against slowly-changing tables cost \
                 O(|delta|) crypto instead of O(n). Output is byte-identical to \
                 a cold run; delete the directory at any time to force one.")

let delta_arg =
  Arg.(value & flag
       & info [ "delta" ]
           ~doc:"With --cache: print the incremental statistics (cache \
                 hits/misses, elements added/removed since the last committed \
                 run) to stderr.")

let fresh_keys_arg =
  Arg.(value & flag
       & info [ "fresh-keys" ]
           ~doc:"With --cache: rotate the commutative-encryption keys every run \
                 instead of reusing them. Fresh keys make runs unlinkable but \
                 invalidate all cached ciphertexts by construction — only the \
                 key-independent hashing amortizes (see docs/PROTOCOLS.md, \
                 \"Key reuse across runs\").")

let intersect_cmd =
  let doc = "Run a private set operation between two CSV tables." in
  Cmd.v
    (Cmd.info "intersect" ~doc)
    Term.(const run_intersect $ group_arg $ seed_arg $ jobs_arg $ buckets_arg
          $ spill_dir_arg $ op_arg $ csv_s_arg $ csv_r_arg $ attr_arg $ cache_arg
          $ delta_arg $ fresh_keys_arg $ trace_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* net: two-process mode over a real socket                            *)
(* ------------------------------------------------------------------ *)

(* The listener plays the paper's sender S (it learns nothing); the
   connecting side plays the receiver R and prints the results. Both
   run the same config handshake as in-process sessions, so mismatched
   --group/--attr fail fast instead of producing garbage. *)

let report_net_stats ep =
  let s = Wire.Channel.stats ep in
  Printf.printf "wire traffic: %d bytes sent, %d bytes received (total %d)\n"
    s.Wire.Channel.bytes_sent s.Wire.Channel.bytes_received
    (s.Wire.Channel.bytes_sent + s.Wire.Channel.bytes_received);
  Printf.printf "messages: %d sent, %d received; largest frame %d bytes\n"
    s.Wire.Channel.messages_sent s.Wire.Channel.messages_received
    s.Wire.Channel.max_message_bytes

(* After the handshake, each process drives its side of the op through
   the executor's bucket loop (K = 1 is the monolithic protocol). Each
   process roots its own spill/checkpoint state: the peers never share a
   disk. *)
let resumed_note st =
  if st.Psi.Shard.start > 0 then
    Printf.sprintf ", resumed at bucket %d" st.Psi.Shard.start
  else ""

let net_sender cfg shard ~seed ~csv ~attr ~op ep =
  (* Same root-span name as the in-process Runner gives this party, so
     psi_trace sees one shape for both deployments. *)
  Obs.Span.with_ "party:sender" @@ fun () ->
  let drbg = Crypto.Drbg.split (Crypto.Drbg.create ~seed) ~label:"sender" in
  Psi.Handshake.respond cfg ep;
  let _ops, st =
    Psi.Shard.sender_op cfg shard ~drbg ep (csv_op op ~csv_s:(Some csv) ~csv_r:None attr)
  in
  Printf.printf "sender: run done — %d element(s) over %d bucket(s); peer holds %d%s\n"
    (List.fold_left ( + ) 0 st.Psi.Shard.sizes)
    st.Psi.Shard.buckets st.Psi.Shard.peer (resumed_note st)

let net_receiver cfg shard ~seed ~csv ~attr ~op ep =
  Obs.Span.with_ "party:receiver" @@ fun () ->
  let drbg = Crypto.Drbg.split (Crypto.Drbg.create ~seed) ~label:"receiver" in
  Psi.Handshake.initiate cfg ep;
  let _ops, result, st =
    Psi.Shard.receiver_op cfg shard ~drbg ep (csv_op op ~csv_s:None ~csv_r:(Some csv) attr)
  in
  (* A resumed run saw only the peer's remaining buckets. *)
  if st.Psi.Shard.start > 0 then
    Printf.eprintf "receiver: |V_S| counts buckets %d..%d only%s\n%!" st.Psi.Shard.start
      (st.Psi.Shard.buckets - 1) (resumed_note st);
  print_result op (result, st.Psi.Shard.peer, List.fold_left ( + ) 0 st.Psi.Shard.sizes)

(* Give a just-started listener a moment to bind before giving up. *)
let connect_with_retry ~host ~port =
  let rec go tries =
    match Wire.Transport.Socket.connect ~host ~port with
    | tr -> tr
    | exception Wire.Protocol_error _ when tries > 0 ->
        Unix.sleepf 0.3;
        go (tries - 1)
  in
  go 10

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p -> (host, p)
      | None -> invalid_arg (Printf.sprintf "net: bad port in %S" s))
  | None -> (
      match int_of_string_opt s with
      | Some p -> ("127.0.0.1", p)
      | None -> invalid_arg (Printf.sprintf "net: expected HOST:PORT, got %S" s))

let run_net group seed jobs buckets spill_dir listen connect csv attr op max_conns
    timeout trace trace_out =
  let cfg = Psi.Protocol.config ~workers:jobs ~domain:("csv:" ^ attr) (Crypto.Group.named group) in
  report_workers ~trace jobs;
  report_kernel ~trace (Crypto.Group.named group);
  report_buckets ~trace buckets spill_dir;
  with_trace ?out:trace_out trace @@ fun () ->
  let shard = Psi.Shard.plan ?state_dir:spill_dir ~buckets () in
  let play_sender ep = net_sender cfg shard ~seed ~csv ~attr ~op ep in
  let play_receiver ep = net_receiver cfg shard ~seed ~csv ~attr ~op ep in
  match (listen, connect) with
  | Some port, None ->
      (* The psid listener, serving connections sequentially: repeated
         --connect runs work against one listener until --max-conns is
         reached or SIGTERM/SIGINT stops the loop. (Before psid this
         branch exited after a single connection.) *)
      let listener = Service.Listener.create ~port () in
      Printf.printf "listening on port %d\n%!" (Service.Listener.port listener);
      let stop _ = Service.Listener.stop listener in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      let max_conns = if max_conns = 0 then None else Some max_conns in
      Service.Listener.run ?max_conns listener (fun conn ->
          let ep = Wire.Channel.of_transport (Service.Listener.transport conn) in
          (* Net mode never inspects transcript views; at --buckets 64
             over large sets the logs would re-materialize every set. *)
          Wire.Channel.set_record_views ep false;
          Wire.Channel.set_timeout ep (Some timeout);
          Fun.protect
            ~finally:(fun () -> Service.Listener.close_conn conn)
            (fun () ->
              match
                play_sender ep;
                Wire.Channel.close ep
              with
              | () -> report_net_stats ep
              | exception e ->
                  Printf.eprintf "net: session failed: %s\n%!" (Wire.Errors.to_string e)))
  | None, Some hostport ->
      let host, port = parse_hostport hostport in
      let ep = Wire.Channel.of_transport (connect_with_retry ~host ~port) in
      Wire.Channel.set_record_views ep false;
      Wire.Channel.set_timeout ep (Some timeout);
      play_receiver ep;
      Wire.Channel.close ep;
      report_net_stats ep
  | Some _, Some _ | None, None ->
      Printf.eprintf "error: pass exactly one of --listen PORT / --connect HOST:PORT\n";
      exit 2

let net_cmd =
  let listen =
    Arg.(value & opt (some int) None
         & info [ "listen" ] ~docv:"PORT"
             ~doc:"Listen on loopback $(docv) (0 picks a free port) and play the \
                   sender S. Prints the bound port once listening.")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT"
             ~doc:"Connect to a listening peer and play the receiver R (the party \
                   that learns the result).")
  in
  let csv =
    Arg.(required & opt (some file) None
         & info [ "csv" ] ~doc:"This side's CSV table.")
  in
  let max_conns =
    Arg.(value & opt int 0
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"With --listen: exit after serving $(docv) connections \
                   (0, the default, serves until SIGTERM/SIGINT). Earlier \
                   releases always exited after one connection; pass \
                   --max-conns 1 for that behavior.")
  in
  let timeout =
    Arg.(value & opt float 30.
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Receive deadline per protocol message; a stalled peer fails the \
                   run with a typed timeout instead of hanging.")
  in
  Cmd.v
    (Cmd.info "net"
       ~doc:"Run a protocol between two OS processes over a real socket."
       ~man:
         [
           `S Manpage.s_examples;
           `P "Terminal 1: psi_demo net --listen 7001 --csv s.csv --attr email";
           `P "Terminal 2: psi_demo net --connect 127.0.0.1:7001 --csv r.csv --attr email";
         ])
    Term.(const run_net $ group_arg $ seed_arg $ jobs_arg $ buckets_arg $ spill_dir_arg
          $ listen $ connect $ csv $ attr_arg $ op_arg $ max_conns $ timeout $ trace_arg
          $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* service: client session against a running psid                      *)
(* ------------------------------------------------------------------ *)

(* This process plays the receiver R; the daemon's tenant table plays
   S. Unlike `net`, one connection can carry several operations and is
   admission-controlled and authenticated — exit code 3 means the
   daemon was at capacity (busy), 4 means credentials were refused. *)

(* The whole post-connect exchange, with the client record as a
   parameter: one call site below supplies the DRBG-bearing client, so
   the taint analysis anchors every flow there. *)
let service_session c ~csv ~attr ~op =
  let result, _sender_encryptions =
    Service.Client.run c (csv_op op ~csv_s:None ~csv_r:(Some csv) attr)
  in
  (match result with
  | Psi.Session.Values inter ->
      Printf.printf "|V_R| = %d, |V_S ∩ V_R| = %d\n"
        (List.length (values_of_csv csv attr))
        (List.length inter);
      List.iter (Printf.printf "%s\n") inter
  | Psi.Session.Size sz -> Printf.printf "size = %d\n" sz
  | Psi.Session.Matches matches ->
      List.iter
        (fun (v, recs) ->
          Printf.printf "%s:\n" v;
          List.iter (Printf.printf "  %s\n") recs)
        matches;
      Printf.printf "%d joining value(s)\n" (List.length matches));
  Printf.printf "session %s\n" (Service.Client.session_id c);
  let s = Service.Client.stats c in
  Printf.printf "wire traffic: %d bytes sent, %d bytes received (total %d)\n"
    s.Wire.Channel.bytes_sent s.Wire.Channel.bytes_received
    (s.Wire.Channel.bytes_sent + s.Wire.Channel.bytes_received);
  Service.Client.close c

let run_service group seed connect tenant secret csv attr op timeout trace
    trace_out =
  with_trace ?out:trace_out trace @@ fun () ->
  let host, port = parse_hostport connect in
  match
    Service.Client.connect ~timeout_s:timeout ~seed ~host ~port ~tenant ~secret
      ~attr (Crypto.Group.named group)
  with
  | exception Service.Busy reason ->
      Printf.eprintf "service: busy: %s\n" reason;
      exit 3
  | exception Service.Denied reason ->
      Printf.eprintf "service: denied: %s\n" reason;
      exit 4
  | c ->
      service_session c ~csv ~attr ~op

let service_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT"
             ~doc:"The psid daemon's protocol endpoint.")
  in
  let tenant =
    Arg.(required & opt (some string) None
         & info [ "tenant" ] ~docv:"ID" ~doc:"Tenant id to authenticate as.")
  in
  let secret =
    Arg.(required & opt (some string) None
         & info [ "secret" ] ~docv:"SECRET"
             ~doc:"The tenant's shared secret (proven via challenge-response; \
                   never sent on the wire).")
  in
  let csv =
    Arg.(required & opt (some file) None
         & info [ "csv" ] ~doc:"This side's CSV table (party R's values).")
  in
  let timeout =
    Arg.(value & opt float 30.
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Receive deadline per message.")
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:"Run one operation as a client session against a psid daemon."
       ~man:
         [
           `S Manpage.s_examples;
           `P "psid serve --port 7100 --tenant hospital:s3cret:ts.csv &";
           `P "psi_demo service --connect 127.0.0.1:7100 --tenant hospital \\";
           `P "  --secret s3cret --csv tr.csv --attr person_id --op size";
         ])
    Term.(const run_service $ group_arg $ seed_arg $ connect $ tenant $ secret
          $ csv $ attr_arg $ op_arg $ timeout $ trace_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* gen-medical / medical                                               *)
(* ------------------------------------------------------------------ *)

let run_gen_medical seed patients out_r out_s =
  let t_r, t_s, _ =
    Psi.Workload.medical_tables ~seed ~n_patients:patients ~p_pattern:0.3 ~p_drug:0.5
      ~p_reaction:0.12
  in
  Minidb.Csv.save out_r t_r;
  Minidb.Csv.save out_s t_s;
  Printf.printf "wrote %s (%d rows) and %s (%d rows)\n" out_r
    (Minidb.Table.cardinality t_r) out_s (Minidb.Table.cardinality t_s)

let gen_medical_cmd =
  let patients = Arg.(value & opt int 500 & info [ "patients" ] ~doc:"Cohort size.") in
  let out_r = Arg.(value & opt string "tr.csv" & info [ "out-r" ] ~doc:"Output for T_R.") in
  let out_s = Arg.(value & opt string "ts.csv" & info [ "out-s" ] ~doc:"Output for T_S.") in
  Cmd.v
    (Cmd.info "gen-medical" ~doc:"Generate a synthetic medical cohort (two CSV tables).")
    Term.(const run_gen_medical $ seed_arg $ patients $ out_r $ out_s)

let run_medical group seed jobs table_r table_s trace =
  let cfg = Psi.Protocol.config ~workers:jobs ~domain:"medical:person_id" (Crypto.Group.named group) in
  let t_r = Minidb.Csv.load table_r and t_s = Minidb.Csv.load table_s in
  report_workers ~trace jobs;
  report_kernel ~trace (Crypto.Group.named group);
  with_trace trace @@ fun () ->
  let report = Psi.Medical.run cfg ~seed ~t_r ~t_s () in
  let c = report.Psi.Medical.counts in
  Printf.printf "pattern & reaction:      %d\n" c.Psi.Medical.pattern_and_reaction;
  Printf.printf "pattern, no reaction:    %d\n" c.Psi.Medical.pattern_no_reaction;
  Printf.printf "no pattern & reaction:   %d\n" c.Psi.Medical.no_pattern_and_reaction;
  Printf.printf "no pattern, no reaction: %d\n" c.Psi.Medical.no_pattern_no_reaction;
  report_traffic report.Psi.Medical.total_bytes

let medical_cmd =
  let table_r =
    Arg.(required & opt (some file) None & info [ "table-r" ] ~doc:"T_R CSV (person_id, pattern).")
  in
  let table_s =
    Arg.(required & opt (some file) None
         & info [ "table-s" ] ~doc:"T_S CSV (person_id, drug, reaction).")
  in
  Cmd.v
    (Cmd.info "medical" ~doc:"Run the Figure-2 medical research query privately.")
    Term.(const run_medical $ group_arg $ seed_arg $ jobs_arg $ table_r $ table_s $ trace_arg)

(* ------------------------------------------------------------------ *)
(* estimate                                                            *)
(* ------------------------------------------------------------------ *)

let run_estimate op vs vr measured group =
  let params =
    if measured then Psi.Cost_model.measured_params (Crypto.Group.named group)
    else Psi.Cost_model.paper_params
  in
  let operation =
    match op with
    | Op_intersection -> Psi.Cost_model.Intersection
    | Op_size -> Psi.Cost_model.Intersection_size
    | Op_join -> Psi.Cost_model.Equijoin
    | Op_join_size -> Psi.Cost_model.Equijoin_size
  in
  let e = Psi.Cost_model.estimate params operation ~v_s:vs ~v_r:vr in
  Printf.printf "parameters: Ce = %g s, k = %d bits, P = %d, bandwidth = %g bit/s%s\n"
    params.Psi.Cost_model.ce_seconds params.Psi.Cost_model.k_bits
    params.Psi.Cost_model.processors params.Psi.Cost_model.bandwidth_bits_per_s
    (if measured then " (measured on this machine)" else " (paper's 2001 constants)");
  Printf.printf "encryptions: %.3g Ce\n" e.Psi.Cost_model.encryptions;
  Printf.printf "computation: %s\n" (Psi.Cost_model.format_seconds e.Psi.Cost_model.comp_seconds);
  Printf.printf "communication: %s (%s)\n"
    (Psi.Cost_model.format_bits e.Psi.Cost_model.comm_bits)
    (Psi.Cost_model.format_seconds e.Psi.Cost_model.comm_seconds)

let estimate_cmd =
  let vs = Arg.(value & opt int 1_000_000 & info [ "vs" ] ~doc:"|V_S|.") in
  let vr = Arg.(value & opt int 1_000_000 & info [ "vr" ] ~doc:"|V_R|.") in
  let measured =
    Arg.(value & flag & info [ "measured" ] ~doc:"Measure Ce on this machine instead of 2001 constants.")
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Apply the §6.1 cost model.")
    Term.(const run_estimate $ op_arg $ vs $ vr $ measured $ group_arg)

(* ------------------------------------------------------------------ *)
(* group-by                                                            *)
(* ------------------------------------------------------------------ *)

let run_group_by group seed jobs csv_r csv_s key r_class s_class =
  let cfg = Psi.Protocol.config ~workers:jobs ~domain:("group-by:" ^ key) (Crypto.Group.named group) in
  let t_r = Minidb.Csv.load csv_r and t_s = Minidb.Csv.load csv_s in
  let g =
    Psi.Group_by.run cfg ~seed ~t_r ~r_key:key ~r_class ~t_s ~s_key:key ~s_class ()
  in
  Printf.printf "%-20s %-20s %8s\n" r_class s_class "count";
  List.iter
    (fun ((rc, sc), n) ->
      Printf.printf "%-20s %-20s %8d\n" (Minidb.Value.to_string rc)
        (Minidb.Value.to_string sc) n)
    g.Psi.Group_by.cells;
  report_traffic g.Psi.Group_by.total_bytes

let group_by_cmd =
  let csv_r = Arg.(required & opt (some file) None & info [ "csv-r" ] ~doc:"R's CSV table.") in
  let csv_s = Arg.(required & opt (some file) None & info [ "csv-s" ] ~doc:"S's CSV table.") in
  let key = Arg.(value & opt string "id" & info [ "key" ] ~doc:"Join column (both tables).") in
  let r_class = Arg.(required & opt (some string) None & info [ "r-class" ] ~doc:"R's grouping column.") in
  let s_class = Arg.(required & opt (some string) None & info [ "s-class" ] ~doc:"S's grouping column.") in
  Cmd.v
    (Cmd.info "group-by" ~doc:"Private two-table GROUP BY count (generalized Figure 2).")
    Term.(const run_group_by $ group_arg $ seed_arg $ jobs_arg $ csv_r $ csv_s $ key $ r_class $ s_class)

(* ------------------------------------------------------------------ *)
(* aggregate                                                           *)
(* ------------------------------------------------------------------ *)

let run_aggregate group seed jobs csv_s csv_r attr sum_col =
  let cfg = Psi.Protocol.config ~workers:jobs ~domain:("aggregate:" ^ attr) (Crypto.Group.named group) in
  let t_s = Minidb.Csv.load csv_s in
  let records =
    List.filter_map
      (fun row ->
        let v = Minidb.Table.get t_s row attr in
        let x = Minidb.Table.get t_s row sum_col in
        match (v, x) with
        | Minidb.Value.Null, _ | _, Minidb.Value.Null -> None
        | v, Minidb.Value.Int x -> Some (Minidb.Value.key v, x)
        | _, other ->
            invalid_arg
              (Printf.sprintf "aggregate: column %s must be int, got %s" sum_col
                 (Minidb.Value.to_string other)))
      (Minidb.Table.rows t_s)
  in
  let vr = values_of_csv csv_r attr in
  let o = Psi.Aggregate.run cfg ~seed ~sender_records:records ~receiver_values:vr () in
  let r = o.Wire.Runner.receiver_result in
  Printf.printf "sum(%s) over the %d joining values = %d\n" sum_col
    (List.length r.Psi.Aggregate.intersection)
    r.Psi.Aggregate.sum;
  report_traffic o.Wire.Runner.total_bytes

let aggregate_cmd =
  let sum_col =
    Arg.(value & opt string "amount" & info [ "sum" ] ~doc:"S's integer column to total.")
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Private equijoin SUM of a sender column over the joining values.")
    Term.(const run_aggregate $ group_arg $ seed_arg $ jobs_arg $ csv_s_arg $ csv_r_arg $ attr_arg $ sum_col)

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)
(* ------------------------------------------------------------------ *)

let run_sql group seed jobs query csv_s s_name csv_r r_name explain_only =
  let sender = (s_name, Minidb.Csv.load csv_s) and receiver = (r_name, Minidb.Csv.load csv_r) in
  if explain_only then begin
    match Psi.Sql_private.explain ~sql:query ~sender ~receiver () with
    | Ok plan -> Printf.printf "plan: %s\n" plan
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
  end
  else begin
    let cfg = Psi.Protocol.config ~workers:jobs ~domain:("sql:" ^ s_name ^ ":" ^ r_name) (Crypto.Group.named group) in
    match Psi.Sql_private.run cfg ~seed ~sql:query ~sender ~receiver () with
    | Ok o ->
        print_string (Minidb.Csv.to_string o.Psi.Sql_private.table);
        Printf.eprintf "-- %d bytes of protocol traffic, %d encryptions\n"
          o.Psi.Sql_private.total_bytes o.Psi.Sql_private.ops.Psi.Protocol.encryptions
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
  end

let sql_cmd =
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.") in
  let s_name = Arg.(value & opt string "s" & info [ "sender-name" ] ~doc:"Sender table name in the query.") in
  let r_name = Arg.(value & opt string "r" & info [ "receiver-name" ] ~doc:"Receiver table name in the query.") in
  let explain_only = Arg.(value & flag & info [ "explain" ] ~doc:"Only print the protocol plan.") in
  Cmd.v
    (Cmd.info "sql" ~doc:"Privately execute a SQL query spanning two CSV tables.")
    Term.(const run_sql $ group_arg $ seed_arg $ jobs_arg $ query $ csv_s_arg $ s_name $ csv_r_arg $ r_name $ explain_only)

(* ------------------------------------------------------------------ *)

let main_cmd =
  Cmd.group
    (Cmd.info "psi_demo" ~version:"1.0.0"
       ~doc:"Information sharing across private databases (SIGMOD 2003 protocols)")
    [
      intersect_cmd; net_cmd; service_cmd; gen_medical_cmd; medical_cmd; estimate_cmd;
      group_by_cmd; aggregate_cmd; sql_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
