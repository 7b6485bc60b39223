(** Application 1: selective document sharing (§1.1, §6.2.1).

    [R] and [S] each hold a document collection; they run the
    intersection size protocol on every pair [(d_R, d_S)] of word sets
    and compute a similarity [f(|d_R ∩ d_S|, |d_R|, |d_S|)], revealing
    only the matching pairs' overlap sizes. The paper notes this also
    reveals to [R], per document, which of [S]'s documents matched and
    the overlap size — the price of the pairwise-protocol design. *)

type pair_result = {
  r_doc : string;
  s_doc : string;
  overlap : int;  (** |d_R ∩ d_S| *)
  r_size : int;
  s_size : int;
  similarity : float;
}

type report = {
  matches : pair_result list;  (** pairs with similarity > threshold *)
  all_pairs : pair_result list;  (** every pair (what R actually learns) *)
  total_bytes : int;
  ops : Protocol.ops;  (** both parties' operations combined *)
}

(** The paper's example similarity: [|∩| / (|d_R| + |d_S|)]. *)
val similarity_default : overlap:int -> r_size:int -> s_size:int -> float

(** [run cfg ~docs_r ~docs_s ~threshold ()] executes the §6.2.1
    implementation: one session ({!Session.run}) running one
    intersection-size protocol per document pair. *)
val run :
  Protocol.config ->
  ?seed:string ->
  ?similarity:(overlap:int -> r_size:int -> s_size:int -> float) ->
  docs_r:Workload.document list ->
  docs_s:Workload.document list ->
  threshold:float ->
  unit ->
  report

(** [plaintext_matches ~docs_r ~docs_s ~threshold] is the ground truth
    computed with no privacy (test oracle). *)
val plaintext_matches :
  ?similarity:(overlap:int -> r_size:int -> s_size:int -> float) ->
  docs_r:Workload.document list ->
  docs_s:Workload.document list ->
  threshold:float ->
  unit ->
  (string * string) list

(** [estimate params ~n_r ~n_s ~d_r ~d_s] applies the §6.2.1 cost
    formulas: computation [|D_R||D_S|(|d_R|+|d_S|) 2Ce], communication
    [|D_R||D_S|(|d_R|+2|d_S|) k]. *)
val estimate :
  Cost_model.params -> n_r:int -> n_s:int -> d_r:int -> d_s:int -> Cost_model.estimate
