type comparison = {
  label : string;
  predicted_ce : float;
  observed_ce : float;
  ce_rel_error : float;
  predicted_bits : float;
  observed_bits : float;
  bits_rel_error : float;
  tolerance : float;
  within_tolerance : bool;
}

let rel_error ~predicted ~observed =
  if predicted = 0. then if observed = 0. then 0. else Float.infinity
  else Float.abs (observed -. predicted) /. Float.abs predicted

let compare ?(tolerance = 0.10) ~label ~predicted_ce ~observed_ce ~predicted_bits
    ~observed_bits () =
  let ce_rel_error = rel_error ~predicted:predicted_ce ~observed:observed_ce in
  let bits_rel_error = rel_error ~predicted:predicted_bits ~observed:observed_bits in
  {
    label;
    predicted_ce;
    observed_ce;
    ce_rel_error;
    predicted_bits;
    observed_bits;
    bits_rel_error;
    tolerance;
    within_tolerance = ce_rel_error <= tolerance && bits_rel_error <= tolerance;
  }

let pp fmt c =
  Format.fprintf fmt
    "%-16s Ce %8.0f predicted / %8.0f observed (%+.2f%%)  bits %10.0f predicted / %10.0f observed (%+.2f%%)  %s"
    c.label c.predicted_ce c.observed_ce
    (100. *. c.ce_rel_error)
    c.predicted_bits c.observed_bits
    (100. *. c.bits_rel_error)
    (if c.within_tolerance then "OK"
     else Printf.sprintf "DIVERGED (tolerance %.0f%%)" (100. *. c.tolerance))
