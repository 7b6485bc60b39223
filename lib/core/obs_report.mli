(** Live §6.1 model-vs-measured comparison.

    The executor ({!Shard}) publishes every operation's
    [psi.<op>.{v_s,v_r}] gauges and
    [psi.<op>.{runs,encryptions,wire_bytes}] counters through
    {!Protocol.record_run}, so any {!Session} run feeds it; the wire
    bytes exclude the config handshake. Given a snapshot of those
    metrics, this
    module recomputes the paper's §6.1 predictions for the observed
    input sizes and reports relative errors via {!Obs.Report}.

    The encryption-count prediction is exact (the protocols perform
    precisely the modexps the model counts), so its relative error
    should be 0. Wire bits differ from [(|V_S| + 2|V_R|) k] by framing
    (message tags, length varints) — a few percent, flagged only beyond
    the tolerance (default 10%). *)

(** [model_vs_measured ?tolerance params op snapshot] compares the
    model against the telemetry of the runs captured in [snapshot].
    Counters are averaged over [psi.<op>.runs] — exact when all runs in
    the snapshot used the same input sizes.
    @raise Invalid_argument if [snapshot] has no telemetry for [op]
    (e.g. it was taken with telemetry disabled). *)
val model_vs_measured :
  ?tolerance:float ->
  Cost_model.params ->
  Cost_model.operation ->
  Obs.Metrics.snapshot ->
  Obs.Report.comparison

(** {1 Measured vs modeled speedup}

    §6.2 assumes bulk encryption is "trivially parallelizable" across
    [P] processors. These rows check that claim: the modeled wall-clock
    is [comp_seconds(P) + comm_seconds] from {!Cost_model.estimate} at
    the snapshot's input sizes; measured times (if supplied, keyed by
    pool size) come from an actual run such as the bench harness's pool
    sweep. *)

type speedup_row = {
  processors : int;
  modeled_seconds : float;
  modeled_speedup : float;  (** modeled wall(1) / wall(P) *)
  measured_seconds : float option;
  measured_speedup : float option;
      (** measured wall(1) / wall(P); [None] unless [measured] covers
          both [1] and this [P] *)
}

(** [speedup_table ?processors ?measured params op snapshot] builds one
    row per pool size (default [P ∈ {1, 2, 4}]).
    @raise Invalid_argument if [snapshot] has no telemetry for [op]. *)
val speedup_table :
  ?processors:int list ->
  ?measured:(int * float) list ->
  Cost_model.params ->
  Cost_model.operation ->
  Obs.Metrics.snapshot ->
  speedup_row list

(** {1 Amortized cost}

    With the persistent element cache ({!Ecache} via
    {!Session.run_incremental}), a repeat run against a set with [|Δ|]
    changed elements pays the §6.1 crypto term at the delta sizes —
    [Ce·|Δ|] — while the communication term still covers the full sets
    (the warm transcript is byte-identical to a cold one). Each row
    pairs that model against a measurement, e.g. from
    the bench harness's incremental churn curve. *)

type amortized_row = {
  delta_fraction : float;  (** (|Δ_S| + |Δ_R|) / (|V_S| + |V_R|) *)
  delta_s : int;
  delta_r : int;
  modeled_encryptions : float;  (** §6.1 encryption count at Δ sizes *)
  measured_encryptions : float option;
      (** the warm run's [ops.encryptions] — modexps actually paid
          (cache hits don't tick the counter) *)
  modeled_seconds : float;  (** comp_seconds(Δ) + comm_seconds(full) *)
  measured_seconds : float option;
}

(** [amortized_row params op ~v_s ~v_r ~delta_s ~delta_r ()] models one
    churn point for full sizes [(v_s, v_r)] and per-side deltas. *)
val amortized_row :
  Cost_model.params ->
  Cost_model.operation ->
  v_s:int ->
  v_r:int ->
  delta_s:int ->
  delta_r:int ->
  ?measured_encryptions:float ->
  ?measured_seconds:float ->
  unit ->
  amortized_row
