(** Committed-run snapshots for the incremental driver.

    After a successful run, [Session.run_incremental] saves the input
    sets it executed against (plus the key fingerprint it used); the
    next run diffs its current sets against this snapshot to learn the
    delta [Δ] and only pays crypto work for added elements.

    Format: a {!Record_log} of kind ["snapshot"] holding exactly one
    frame, whose body is {!encode}'s output: a varint run counter, then
    per-operation entries of op tag, key fingerprint, and both parties'
    element lists. The read policy accepts only a clean read of that one
    frame: {!load} answers [None] for a missing, foreign, damaged or
    extended file, which [Session.run_incremental] treats as "no
    previous run" — a cold run, never a wrong diff. The shard
    executor's per-bucket checkpoints are snapshots too, with the same
    policy. *)

type entry = {
  op : string;  (** stable operation tag, e.g. ["intersection"] *)
  key_fp : string;  (** fingerprint of the session's key material *)
  s_elements : string list;  (** sender set, sorted and deduplicated *)
  r_elements : string list;  (** receiver set, sorted and deduplicated *)
}

type t = {
  run_id : int;  (** monotonically increasing run counter *)
  entries : entry list;
}

(** [encode t] is the snapshot's frame body. *)
val encode : t -> string

(** [decode body] parses {!encode} output. All claimed lengths are
    bounded by the input size before any allocation. *)
val decode : string -> (t, string) result

(** [save ~path t] writes atomically ({!Record_log.write}). *)
val save : path:string -> t -> unit

(** [load ~path] is [None] when the file is missing or unusable. *)
val load : path:string -> t option
