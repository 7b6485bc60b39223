(** The equijoin size protocol (§5.2).

    The intersection size protocol run on {e multisets}: duplicates in
    [T_S.A] and [T_R.A] are preserved, and in step 6 [R] computes
    [|T_S >< T_R| = sum_v mult_S(v) * mult_R(v)] instead of the
    intersection size.

    This protocol deliberately trades leakage for functionality (§5.2):
    [S] learns the duplicate distribution of [T_R.A], [R] learns the
    duplicate distribution of [T_S.A], and [R] additionally learns
    [|V_R(d) ∩ V_S(d')|] for every pair of duplicate classes — in the
    extreme where all duplicate counts are distinct, that identifies
    [V_R ∩ V_S] exactly. {!Leakage} quantifies this, and the tests check
    the protocol reveals exactly that much. *)

type sender_report = {
  v_r_multiset_size : int;  (** |T_R.A| with duplicates *)
  r_duplicate_distribution : (int * int) list;
      (** [(d, number of V_R values with d duplicates)] — what S learns *)
  ops : Protocol.ops;
}

type receiver_report = {
  join_size : int;  (** |T_S >< T_R| *)
  v_s_multiset_size : int;
  s_duplicate_distribution : (int * int) list;  (** what R learns *)
  class_intersections : ((int * int) * int) list;
      (** [((d, d'), |V_R(d) ∩ V_S(d')|)] — the §5.2 leakage, as
          reconstructed by R from its view *)
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
