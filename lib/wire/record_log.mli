(** The one on-disk format: an append-only, checksummed record log.

    Every piece of state a party keeps on its own disk — the element
    cache, run snapshots and shard checkpoints, shard spills, the minidb
    write-ahead log — is a file of this shape:

    {v
    header = "PSIRLOG" | varint len | kind | version u8
    frame  = varint len | body | FNV-1a-64(body), 8 bytes big-endian
    file   = header frame*
    v}

    The header names the file's [kind], so one kind's reader never
    mistakes another kind's file (or a file from before this format)
    for its own. The checksum guards against accidental damage on the
    party's own disk, not tampering; it detects every single-byte change
    in a body. Each caller keeps only its body codec and its read
    policy: skip a corrupt frame, accept only a clean read, or replay
    the valid prefix.

    Telemetry: {!fold} opens a [store/read] span, {!write} and {!append}
    a [store/write] span, each with [kind] and [bytes] attributes. *)

(** [header kind] is the exact prefix of every log of [kind]; the
    format version is its last byte. *)
val header : string -> string

(** {1 Reading} *)

type frame =
  | Body of string  (** a frame whose checksum holds *)
  | Corrupt
      (** a frame whose checksum fails, or the unframeable tail the read
          stops at (then the last frame) *)

type 'a read =
  | Missing  (** no readable file at the path *)
  | Foreign  (** not a log of this kind: a short, empty or other file *)
  | Read of {
      acc : 'a;
      valid : int;  (** byte offset just past the longest prefix of good frames *)
      clean : bool;  (** every frame good, and the file ends on a frame *)
    }

(** [fold ~kind path ~init f] folds [f] over the file's frames in file
    order, reading them from the channel up to four at a time and
    verifying their checksums in one pass: only those frames are in
    memory, never the whole file. Total on file
    contents: a claimed length is checked against the bytes left in the
    file before anything is allocated, a file that shrinks under the
    read ends in a [Corrupt] tail, and no content makes it raise.
    Exceptions from [f] propagate. *)
val fold : kind:string -> string -> init:'a -> ('a -> frame -> 'a) -> 'a read

(** [is_log ~kind path]: the file starts with [header kind] (only that
    much is read). *)
val is_log : kind:string -> string -> bool

(** Raised by callers whose read policy refuses a damaged log (a shard
    spill); the message names the file and the damage. *)
exception Damaged of string

(** {1 Writing} *)

(** [mkdirs dir] creates [dir] and its missing parents. *)
val mkdirs : string -> unit

(** [write ~kind path bodies] replaces [path] atomically with a log of
    [kind] holding one frame per body, in order: the parent directories
    are created, a temp file is written, then renamed over [path]. The
    bodies are forced one at a time as they are written, so a caller can
    stream frames without building them all first; one that has a list
    passes [List.to_seq]. *)
val write : kind:string -> string -> string Seq.t -> unit

type appender

(** [open_append ?at ~kind path] opens the existing log at [path] for
    appending, first truncating it to [at] bytes when given (a reader's
    [valid] offset). *)
val open_append : ?at:int -> kind:string -> string -> appender

(** [append a body] writes one frame and flushes it to the file. *)
val append : appender -> string -> unit

val close : appender -> unit
