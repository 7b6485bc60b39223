(** The equijoin protocol (§4.3).

    [R] learns [V_S ∩ V_R], [ext(v)] for every [v] in the intersection,
    and [|V_S|]; [S] learns [|V_R|] (Statement 4). [ext(v)] — all of
    [S]'s records joining on [v] — travels encrypted under
    [kappa(v) = f_e'S(h(v))], which [R] can only reconstruct for its own
    values (§4.1).

    {v
    R -> S   equijoin/Y_R    f_eR(h(V_R)), sorted
    S -> R   equijoin/pairs  (f_eS(y), f_e'S(y)) for y in Y_R, Y_R order
    S -> R   equijoin/ext    (f_eS(h(v)), K(kappa(v), ext v)), sorted
    v}

    Per §3.2.2 (footnote 2), [S] embeds [v] itself inside [ext(v)] so
    [R] can detect cross-party hash collisions; any detected collision is
    reported rather than silently joined. *)

type sender_report = { v_r_count : int; ops : Protocol.ops }

type receiver_report = {
  matches : (string * string list) list;
      (** [(v, records of S joining on v)] for [v] in [V_S ∩ V_R],
          sorted by [v] *)
  v_s_count : int;
  collisions : string list;
      (** values whose embedded identity check failed (hash collision
          between [V_S] and [V_R]; astronomically unlikely) *)
  ops : Protocol.ops;
}

(** [sender cfg ~rng ~records ep]: [records] pairs each value with one
    record payload; multiple records may share a value ([ext(v)] is the
    list of all of them).
    @raise Invalid_argument under [Mul_cipher] if some [ext(v)] exceeds
    the one-group-element payload limit. *)
val sender :
  Protocol.config ->
  rng:Bignum.Nat_rand.rng ->
  records:(string * string) list ->
  Wire.Channel.endpoint ->
  sender_report

val receiver :
  Protocol.config ->
  rng:Bignum.Nat_rand.rng ->
  values:string list ->
  Wire.Channel.endpoint ->
  receiver_report
