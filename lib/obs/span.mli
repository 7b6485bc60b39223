(** Tracing spans with parent/child nesting.

    A span brackets a region of code with monotonic-clock timestamps.
    Nesting is ambient and per-thread: a span opened while another span
    of the same thread is open becomes its child, so each protocol
    party (one thread under {!Wire.Runner}) grows its own subtree.

    When no trace is active — the default — {!with_} calls its function
    directly: one atomic load of overhead, nothing allocated. *)

type t

val name : t -> string
val attrs : t -> (string * string) list

(** Id of the thread the span ran on. *)
val thread : t -> int

val start_ns : t -> int64
val dur_ns : t -> int64

(** Completed children, oldest first. *)
val children : t -> t list

(** {1 Recording} *)

(** [with_ ?attrs name f] runs [f] inside a span when a trace is active,
    and is just [f ()] otherwise (when a {!Ring} is installed, enter and
    exit events are recorded even without a trace). Exception-safe: the
    span closes even if [f] raises.

    Spans that finish as roots are stamped with the ambient
    {!Context} ([trace_id]/[party] attrs); nested spans inherit it
    structurally. *)
val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** {1 Manual bracketing}

    For the rare site where [with_]'s closure is awkward (callback
    seams). Every [enter] must be matched by exactly one [exit] on the
    same thread before the enclosing scope unwinds — [psi_lint]'s OBS01
    flags [Span.enter] in [lib/] without a structurally matching
    [Span.exit]. Prefer {!with_}, which is exception-safe. *)

type handle

(** [enter ?attrs name] opens a span (or just records to the flight
    recorder when no trace is active). *)
val enter : ?attrs:(string * string) list -> string -> handle

(** [exit ?attrs h] closes the span opened by the matching {!enter},
    appending [attrs] to the ones given there (for figures known only at
    the end, such as the bytes a streamed write produced). Calling it
    twice records the span twice — don't. *)
val exit : ?attrs:(string * string) list -> handle -> unit

(** [start_trace ()] installs a fresh process-wide trace collector. *)
val start_trace : unit -> unit

(** [stop_trace ()] uninstalls the collector and returns the completed
    root spans in start order (across all threads). Spans still open are
    discarded. Returns [[]] if no trace was active. *)
val stop_trace : unit -> t list

val tracing : unit -> bool

(** [collect f] = start a trace, run [f], stop: [(f (), roots)]. *)
val collect : (unit -> 'a) -> 'a * t list

(** [make] rebuilds a span value (exporter round-trips, tests). *)
val make :
  name:string ->
  attrs:(string * string) list ->
  thread:int ->
  start_ns:int64 ->
  dur_ns:int64 ->
  children:t list ->
  t
