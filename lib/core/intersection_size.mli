(** The intersection size protocol (§5.1).

    [R] learns only [|V_S ∩ V_R|] and [|V_S|]; [S] learns only [|V_R|]
    (Statement 6). The crucial difference from the intersection protocol:
    in step 4(b), [S] returns [Z_R = f_eS(Y_R)] {e lexicographically
    reordered and unpaired}, so [R] cannot match its own values to the
    double encryptions.

    {v
    R -> S   intersection_size/Y_R   f_eR(h(V_R)), sorted
    S -> R   intersection_size/Y_S   f_eS(h(V_S)), sorted
    S -> R   intersection_size/Z_R   f_eS(f_eR(h(V_R))), re-sorted
    v} *)

type sender_report = { v_r_count : int; ops : Protocol.ops }

type receiver_report = {
  size : int;  (** |V_S ∩ V_R| *)
  v_s_count : int;
  ops : Protocol.ops;
}

val sender :
  Protocol.config ->
  rng:Bignum.Nat_rand.rng ->
  values:string list ->
  Wire.Channel.endpoint ->
  sender_report

val receiver :
  Protocol.config ->
  rng:Bignum.Nat_rand.rng ->
  values:string list ->
  Wire.Channel.endpoint ->
  receiver_report

(** {1 Third-party variant (Figure 2)}

    "A slightly modified version of the intersection size protocol where
    [Z_R] and [Z_S] are sent to [T], the researcher, instead of to [S]
    and [R]" (§6.2.2). Neither data holder learns the size; only the
    third party does. *)

type third_party_report = {
  size : int;  (** what T (and only T) learns *)
  total_bytes : int;
      (** bytes over all links, including the two Z messages to T *)
  ops : Protocol.ops;  (** both data holders' operations combined *)
}

val run_to_third_party :
  Protocol.config ->
  ?seed:string ->
  sender_values:string list ->
  receiver_values:string list ->
  unit ->
  third_party_report
