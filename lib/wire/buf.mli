(** Binary serialization: a writer over [Buffer] and a bounds-checked
    reader over [string].

    All protocol messages cross the channel as bytes produced and parsed
    by this module, so the byte counts reported by {!Channel} are the
    real communication cost (the paper's §6.1 communication analysis). *)

(** {1 Writer} *)

type writer

(** [writer ?size ()] starts an empty writer with room for [size] bytes
    (default 256); it grows past that, at the cost of copies. *)
val writer : ?size:int -> unit -> writer
val contents : writer -> string

(** Bytes written so far. *)
val length : writer -> int

val write_u8 : writer -> int -> unit
val write_u32 : writer -> int -> unit

(** [write_varint w n] writes a non-negative integer in LEB128. *)
val write_varint : writer -> int -> unit

(** [write_bytes w s] writes a varint length prefix then the raw bytes. *)
val write_bytes : writer -> string -> unit

(** [write_raw w s] writes the raw bytes with no prefix. *)
val write_raw : writer -> string -> unit

(** {1 Reader} *)

type reader

exception Parse_error of string

val reader : string -> reader
val read_u8 : reader -> int
val read_u32 : reader -> int
val read_varint : reader -> int

(** Default upper bound (16 MiB) for {!read_bytes} length prefixes. *)
val max_chunk_bytes : int

(** [read_bytes ?max r] reads a varint length prefix then that many raw
    bytes. The claimed length is checked against [max] (default
    {!max_chunk_bytes}) {e before} any allocation.
    @raise Parse_error if the prefix exceeds [max] or the input is
    truncated. *)
val read_bytes : ?max:int -> reader -> string

val read_raw : reader -> int -> string

(** [at_end r] is true when all input has been consumed. *)
val at_end : reader -> bool

(** [expect_end r] raises {!Parse_error} unless {!at_end}. *)
val expect_end : reader -> unit
