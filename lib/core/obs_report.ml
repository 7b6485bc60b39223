let op_name = function
  | Cost_model.Intersection -> "intersection"
  | Cost_model.Equijoin -> "equijoin"
  | Cost_model.Intersection_size -> "intersection_size"
  | Cost_model.Equijoin_size -> "equijoin_size"

let get what = function
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf
           "Obs_report.model_vs_measured: %s missing from snapshot (was telemetry \
            enabled during the run?)"
           what)

let sizes_of_snapshot name (snapshot : Obs.Metrics.snapshot) =
  let key suffix = Printf.sprintf "psi.%s.%s" name suffix in
  let gauge suffix = get (key suffix) (Obs.Metrics.find_gauge snapshot (key suffix)) in
  let counter suffix =
    get (key suffix) (Obs.Metrics.find_counter snapshot (key suffix))
  in
  let runs = counter "runs" in
  if runs = 0 then
    invalid_arg (Printf.sprintf "Obs_report: no %s runs in snapshot" name);
  (runs, int_of_float (gauge "v_s"), int_of_float (gauge "v_r"), counter)

let model_vs_measured ?tolerance params op (snapshot : Obs.Metrics.snapshot) =
  let name = op_name op in
  let runs, v_s, v_r, counter = sizes_of_snapshot name snapshot in
  let estimate = Cost_model.estimate params op ~v_s ~v_r in
  (* Counters accumulate across runs while the v_s/v_r gauges hold the
     latest run's sizes, so average the counters per run — exact when
     every run in the snapshot used the same input sizes. *)
  let per_run c = float_of_int c /. float_of_int runs in
  Obs.Report.compare ?tolerance ~label:name
    ~predicted_ce:estimate.Cost_model.encryptions
    ~observed_ce:(per_run (counter "encryptions"))
    ~predicted_bits:estimate.Cost_model.comm_bits
    ~observed_bits:(8. *. per_run (counter "wire_bytes"))
    ()

(* ------------------------------------------------------------------ *)
(* Measured-vs-modeled speedup at P processors (§6.2's parallelism     *)
(* claim, checked live against the domain pool).                       *)
(* ------------------------------------------------------------------ *)

type speedup_row = {
  processors : int;
  modeled_seconds : float;
  modeled_speedup : float;
  measured_seconds : float option;
  measured_speedup : float option;
}

let speedup_table ?(processors = [ 1; 2; 4 ]) ?(measured = []) params op
    (snapshot : Obs.Metrics.snapshot) =
  let name = op_name op in
  let _, v_s, v_r, _ = sizes_of_snapshot name snapshot in
  let wall p =
    let e =
      Cost_model.estimate { params with Cost_model.processors = p } op ~v_s ~v_r
    in
    e.Cost_model.comp_seconds +. e.Cost_model.comm_seconds
  in
  let modeled_base = wall 1 in
  let measured_base = List.assoc_opt 1 measured in
  List.map
    (fun p ->
      let modeled_seconds = wall p in
      let measured_seconds = List.assoc_opt p measured in
      {
        processors = p;
        modeled_seconds;
        modeled_speedup = modeled_base /. modeled_seconds;
        measured_seconds;
        measured_speedup =
          (match (measured_base, measured_seconds) with
          | Some b, Some m when m > 0. -> Some (b /. m)
          | _ -> None);
      })
    processors

(* ------------------------------------------------------------------ *)
(* Amortized cost: a warm (cached) re-run pays Ce·|Δ| instead of Ce·n. *)
(* ------------------------------------------------------------------ *)

type amortized_row = {
  delta_fraction : float;
  delta_s : int;
  delta_r : int;
  modeled_encryptions : float;
  measured_encryptions : float option;
  modeled_seconds : float;
  measured_seconds : float option;
}

let amortized_row params op ~v_s ~v_r ~delta_s ~delta_r ?measured_encryptions
    ?measured_seconds () =
  (* Crypto scales with the delta (the §6.1 estimate evaluated at the
     changed sizes — exactly Ce·|Δ| plus the protocol's constant
     factors), while communication still ships the full sets: the wire
     transcript of a warm run is byte-identical to a cold one. *)
  let at_delta = Cost_model.estimate params op ~v_s:delta_s ~v_r:delta_r in
  let at_full = Cost_model.estimate params op ~v_s ~v_r in
  let total = v_s + v_r in
  {
    delta_fraction =
      (if total = 0 then 0. else float_of_int (delta_s + delta_r) /. float_of_int total);
    delta_s;
    delta_r;
    modeled_encryptions = at_delta.Cost_model.encryptions;
    measured_encryptions;
    modeled_seconds = at_delta.Cost_model.comp_seconds +. at_full.Cost_model.comm_seconds;
    measured_seconds;
  }
