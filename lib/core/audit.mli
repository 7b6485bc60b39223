(** Multi-query defenses (§2.3).

    The protocols bound what one query reveals, but not what a party can
    learn by {e combining} queries. The paper's first line of defence is
    scrutiny of queries; the second is the query-restriction toolbox of
    the statistical-database literature it cites:

    - restricting result sizes (Fellegi [23]; tracker attacks, Denning
      et al. [17]),
    - controlling the overlap among successive queries (Dobkin, Jones &
      Lipton [19]),
    - keeping audit trails of answered queries (Chin & Ozsoyoglu [13]).

    This module implements all three as a policy object each party
    consults before participating in a protocol run. *)

type policy = {
  max_queries_per_peer : int option;
  min_result_size : int option;
      (** deny responses whose result would be smaller (tiny results
          isolate individuals) *)
  max_result_fraction : float option;
      (** deny responses revealing more than this fraction of one's own
          set *)
  max_input_overlap : float option;
      (** deny a query whose input set overlaps any earlier {e distinct}
          query from the same peer by more than this fraction
          (|new ∩ old| / |new|) — the tracker-style differencing
          defence. Exact repeats (same input set and same scope, see
          {!check_query}) reveal nothing new and pass. *)
}

(** Everything allowed (audit trail only). *)
val permissive : policy

val default_policy : policy
(** [max_queries_per_peer = Some 100], [min_result_size = Some 2],
    [max_result_fraction = Some 0.5], [max_input_overlap = Some 0.9]. *)

type decision = Allow | Deny of string

type entry = {
  seq : int;
  peer : string;
  operation : string;
  input_size : int;
  result_size : int option;  (** filled by {!record_result} *)
  decision : decision;
}

type t

val create : policy -> t

(** [check_query t ~peer ~operation ~scope ~input_values] applies the
    count-limit and overlap rules, logs the query, and returns the
    decision. Allowed queries' input sets are remembered for future
    overlap checks. [scope] names whatever else the query fixes besides
    its input set, such as the responder's own filters when the querier
    writes them ([""] when there is nothing else): a query that keeps an
    earlier input set but changes the scope is not an exact repeat, so
    the overlap rule applies to it. *)
val check_query :
  t -> peer:string -> operation:string -> scope:string -> input_values:string list -> decision

(** [check_result t ~peer ~result_size ~own_set_size] applies the
    result-size rules to a computed answer {e before} it is released,
    records it on the latest logged query from [peer], and returns the
    decision. *)
val check_result : t -> peer:string -> result_size:int -> own_set_size:int -> decision

(** [log t] is the audit trail, oldest first. *)
val log : t -> entry list

(** [queries_from t ~peer] counts allowed queries logged for [peer]. *)
val queries_from : t -> peer:string -> int
