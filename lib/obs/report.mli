(** Model-vs-measured comparison: the generic core.

    This module knows nothing about the paper's cost model — it takes
    predicted and observed Ce counts and wire bits and reports relative
    errors. [Psi.Obs_report.model_vs_measured] computes the predictions
    from [Psi.Cost_model] and the observations from a metrics snapshot,
    then delegates here. *)

type comparison = {
  label : string;
  predicted_ce : float;
  observed_ce : float;
  ce_rel_error : float;  (** |obs - pred| / pred; [infinity] if pred = 0 *)
  predicted_bits : float;
  observed_bits : float;
  bits_rel_error : float;
  tolerance : float;
  within_tolerance : bool;
}

val compare :
  ?tolerance:float (** default 0.10 *) ->
  label:string ->
  predicted_ce:float ->
  observed_ce:float ->
  predicted_bits:float ->
  observed_bits:float ->
  unit ->
  comparison

val pp : Format.formatter -> comparison -> unit
