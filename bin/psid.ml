(* psid: the PSI service daemon. Serves many concurrent client
   sessions (psi_demo service / Service.Client) over loopback TCP,
   with admission control, per-tenant encrypted-work caches, an HTTP
   /metrics endpoint, and graceful drain on SIGTERM/SIGINT.

   Examples:
     psid serve --port 7100 --metrics-port 7101 \
          --tenant hospital:s3cret:ts.csv --cache-root /var/tmp/psid
     psid scrape --port 7101 --path /metrics
*)

open Cmdliner

let group_names =
  List.map (fun n -> (Crypto.Group.name_to_string n, n)) Crypto.Group.all_names

let group_arg =
  let doc =
    Printf.sprintf "Named group to use (%s)."
      (String.concat ", " (List.map fst group_names))
  in
  Arg.(value & opt (enum group_names) Crypto.Group.Test256 & info [ "group" ] ~doc)

(* --tenant ID:SECRET:CSV — the daemon-side tenant registry. The CSV
   is the tenant's private table (party S's data); column choice comes
   from each session's requested attribute. *)
let tenant_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ id; secret; csv ] when id <> "" && secret <> "" ->
        if Sys.file_exists csv then Ok (id, secret, csv)
        else Error (`Msg (Printf.sprintf "--tenant %s: no such file %s" id csv))
    | _ -> Error (`Msg (Printf.sprintf "--tenant expects ID:SECRET:CSV, got %S" s))
  in
  let print fmt (id, _secret, csv) = Format.fprintf fmt "%s:<secret>:%s" id csv in
  Arg.conv (parse, print)

let tenants_arg =
  Arg.(non_empty & opt_all tenant_conv []
       & info [ "tenant" ] ~docv:"ID:SECRET:CSV"
           ~doc:"Register a tenant (repeatable): its id, the shared secret \
                 clients must prove knowledge of, and the CSV table holding \
                 this tenant's private data. The daemon plays the paper's \
                 sender S with that table; it learns nothing about client \
                 values beyond their count.")

(* A tenant's CSV is loaded once at startup; sessions only index into
   it. Loading per-session would let one slow disk stall the admission
   window for everyone. *)
let source_of_csv csv =
  let table = Minidb.Csv.load csv in
  let values_for attr =
    List.map Minidb.Value.key (Minidb.Table.distinct_values table attr)
  in
  let records_for attr =
    List.filter_map
      (fun row ->
        let v = Minidb.Table.get table row attr in
        if v = Minidb.Value.Null then None
        else
          Some
            ( Minidb.Value.key v,
              String.concat ","
                (Array.to_list (Array.map Minidb.Value.to_string row)) ))
      (Minidb.Table.rows table)
  in
  { Service.Tenant.values_for; records_for }

let log_to_stderr line = Printf.eprintf "psid: %s\n%!" line

let run_serve group port metrics_port seed jobs max_sessions max_ops timeout
    cache_root cache_entries tenant_specs =
  Service.Log.set_sink (Some log_to_stderr);
  Obs.Ring.install ();
  Obs.Ring.set_sink
    (Some
       (fun events ->
         prerr_string (Format.asprintf "%a" Obs.Ring.pp events)));
  Obs.Ring.install_signal Sys.sigusr1;
  let tenants =
    List.map
      (fun (id, secret, csv) ->
        { Service.Tenant.id; secret; source = source_of_csv csv })
      tenant_specs
  in
  let cfg =
    {
      (Service.Daemon.config (Crypto.Group.named group) ~tenants) with
      port;
      metrics_port;
      workers = jobs;
      max_sessions;
      max_ops_per_session = max_ops;
      recv_timeout_s = (if timeout <= 0. then None else Some timeout);
      seed;
      cache_root;
      cache_entries;
    }
  in
  let d = Service.Daemon.start cfg in
  (* stdout lines are the scriptable interface (tools/service_smoke.sh
     greps them); the operational narrative goes to stderr. *)
  Printf.printf "psid: listening on port %d\n%!" (Service.Daemon.port d);
  Option.iter
    (fun p -> Printf.printf "psid: metrics on port %d\n%!" p)
    (Service.Daemon.metrics_port d);
  let on_signal _ = Service.Daemon.drain d in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  while not (Service.Daemon.draining d) do
    Thread.delay 0.2
  done;
  let clean = Service.Daemon.wait ~timeout_s:30.0 d in
  Printf.printf "psid: drained\n%!";
  exit (if clean then 0 else 1)

let serve_cmd =
  let port =
    Arg.(value & opt int 0
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Protocol port on loopback (0 picks a free one; the bound \
                   port is printed on stdout).")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Serve HTTP GET /metrics (Prometheus text) and /healthz on \
                   this loopback port (0 = ephemeral). Off by default.")
  in
  let seed =
    Arg.(value & opt string "psid" & info [ "seed" ]
         ~doc:"Key-derivation seed. All server-side session keys derive from \
               it deterministically; rotate it to unlink sessions across \
               daemon restarts (see docs/SERVICE.md).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Worker domains for each session's bulk crypto. Total \
                   parallelism is bounded by --max-sessions * N; keep the \
                   product near the core count.")
  in
  let max_sessions =
    Arg.(value & opt int 8
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Admission bound: sessions allowed in flight at once. The \
                   N+1st client is refused with a typed busy response instead \
                   of queueing.")
  in
  let max_ops =
    Arg.(value & opt int 64
         & info [ "max-ops" ] ~docv:"N"
             ~doc:"Operations one session may run before further psid/op \
                   requests are refused (busy).")
  in
  let timeout =
    Arg.(value & opt float 30.
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Per-message receive deadline inside a session; 0 disables \
                   (a stalled client then occupies its admission slot \
                   forever — don't).")
  in
  let cache_root =
    Arg.(value & opt (some string) None
         & info [ "cache-root" ] ~docv:"DIR"
             ~doc:"Per-tenant encrypted-work caches under $(docv)/<tenant>/. \
                   Off by default; see the linkability discussion in \
                   docs/SERVICE.md before enabling.")
  in
  let cache_entries =
    Arg.(value & opt int 65536
         & info [ "cache-entries" ] ~docv:"N"
             ~doc:"Per-tenant cache bound: entries kept beyond the working sets \
                   of the sessions in flight. Each finished session flushes its \
                   tenant's cache, which evicts down to this bound.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the PSI service daemon until SIGTERM.")
    Term.(const run_serve $ group_arg $ port $ metrics_port $ seed $ jobs
          $ max_sessions $ max_ops $ timeout $ cache_root $ cache_entries
          $ tenants_arg)

let run_scrape host port path =
  match Service.Http.get ~host ~port ~path () with
  | 200, body ->
      print_string body;
      exit 0
  | status, body ->
      Printf.eprintf "psid scrape: HTTP %d\n%s" status body;
      exit 1
  | exception Wire.Protocol_error msg ->
      Printf.eprintf "psid scrape: %s\n" msg;
      exit 1

let scrape_cmd =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Endpoint host.") in
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"The daemon's --metrics-port.")
  in
  let path =
    Arg.(value & opt string "/metrics" & info [ "path" ] ~doc:"Path to fetch.")
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:"Fetch the daemon's /metrics (or /healthz) without needing curl.")
    Term.(const run_scrape $ host $ port $ path)

let main_cmd =
  Cmd.group
    (Cmd.info "psid" ~version:"1.0.0"
       ~doc:"Multi-session PSI service daemon (SIGMOD 2003 protocols as a \
             service)")
    [ serve_cmd; scrape_cmd ]

let () = exit (Cmd.eval main_cmd)
