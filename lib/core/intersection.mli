(** The intersection protocol (§3.3 of the paper).

    Party [R] (receiver) learns [V_S ∩ V_R] and [|V_S|]; party [S]
    (sender) learns [|V_R|]; nothing else is revealed (Statement 2).

    Message flow (with the §6.1 optimization that [S] does not echo
    [R]'s ciphertexts — both sides preserve the lexicographic order of
    [Y_R] instead):

    {v
    R -> S   intersection/Y_R        f_eR(h(V_R)), sorted
    S -> R   intersection/Y_S        f_eS(h(V_S)), sorted
    S -> R   intersection/Y_R_enc    f_eS(y) for y in Y_R, in Y_R's order
    v} *)

type sender_report = {
  v_r_count : int;  (** |V_R|: all S learns *)
  ops : Protocol.ops;
}

type receiver_report = {
  intersection : string list;  (** V_S ∩ V_R, sorted *)
  v_s_count : int;  (** |V_S| (from |Y_S|) *)
  ops : Protocol.ops;
}

(** [sender cfg ~rng ~values ep] runs S's side over [ep]. [values] is
    [S]'s value list; duplicates are removed. *)
val sender :
  Protocol.config ->
  rng:Bignum.Nat_rand.rng ->
  values:string list ->
  Wire.Channel.endpoint ->
  sender_report

(** [receiver cfg ~rng ~values ep] runs R's side over [ep]. *)
val receiver :
  Protocol.config ->
  rng:Bignum.Nat_rand.rng ->
  values:string list ->
  Wire.Channel.endpoint ->
  receiver_report
