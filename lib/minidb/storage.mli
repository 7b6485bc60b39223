(** Persistent, log-structured storage for {!Table}s — the "Database"
    box of the paper's Figure 1 made real.

    One file holds many named tables: a {!Wire.Record_log} of kind
    ["minidb"], one checksummed frame per mutation. The read policy is
    replay-the-valid-prefix: {!open_db} applies the good frames up to
    the first corrupt frame or torn tail and truncates the rest, so a
    partial final write never corrupts earlier data. {!checkpoint}
    compacts the log, and {!open_db} creates a new file's header, each
    in one atomic write.

    This is deliberately minimal: no concurrency control, no in-place
    updates (tables are append/drop granularity like the rest of
    [minidb]). *)

type t

(** [open_db path] opens or creates a database file and replays it.
    @raise Invalid_argument if the file exists but is not a database
    (including an empty or short file, or one in an older format). *)
val open_db : string -> t

(** [close t] flushes and closes the underlying file. Using [t]
    afterwards raises. *)
val close : t -> unit

val path : t -> string

(** [create_table t name schema] appends a table-creation record.
    @raise Invalid_argument if [name] already exists or is empty. *)
val create_table : t -> string -> Schema.t -> unit

(** [insert t name rows] appends rows (type-checked against the schema).
    @raise Not_found if the table does not exist. *)
val insert : t -> string -> Table.row list -> unit

(** [drop_table t name] removes the table.
    @raise Not_found if absent. *)
val drop_table : t -> string -> unit

(** [table t name] is the current contents.
    @raise Not_found if absent. *)
val table : t -> string -> Table.t

(** [tables t] is the sorted list of table names. *)
val tables : t -> string list

(** [checkpoint t] compacts the log file to the current state. *)
val checkpoint : t -> unit
