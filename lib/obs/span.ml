type t = {
  name : string;
  mutable attrs : (string * string) list;
  thread : int;
  start_ns : int64;
  mutable dur_ns : int64;
  mutable rev_children : t list;
}

let name s = s.name
let attrs s = s.attrs
let thread s = s.thread
let start_ns s = s.start_ns
let dur_ns s = s.dur_ns
let children s = List.rev s.rev_children

type trace = {
  mutex : Mutex.t;
  mutable rev_roots : t list;
  stacks : (int, t list) Hashtbl.t; (* thread id -> open-span stack *)
}

let current : trace option Atomic.t = Atomic.make None
let tracing () = Atomic.get current <> None

let start_trace () =
  Atomic.set current
    (Some { mutex = Mutex.create (); rev_roots = []; stacks = Hashtbl.create 8 })

let stop_trace () =
  match Atomic.exchange current None with
  | None -> []
  | Some tr ->
      (* Still-open spans (unbalanced stacks) are dropped; roots are
         returned in start order across threads. *)
      List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) (List.rev tr.rev_roots)

(* Roots carry the ambient trace identity as attrs; children inherit it
   by nesting, so the JSONL stream stays lean. *)
let add_root tr span =
  span.attrs <- Context.stamp span.attrs;
  tr.rev_roots <- span :: tr.rev_roots

type handle = (string * string) list -> unit

let idle_handle : handle = fun _ -> ()

let enter ?(attrs = []) name =
  if Ring.active () then Ring.record (Ring.Enter name);
  match Atomic.get current with
  | None ->
      if Ring.active () then begin
        let t0 = Clock.now_ns () in
        fun _ -> Ring.record (Ring.Exit (name, Int64.sub (Clock.now_ns ()) t0))
      end
      else idle_handle
  | Some tr ->
      let tid = Thread.id (Thread.self ()) in
      let span =
        { name; attrs; thread = tid; start_ns = Clock.now_ns (); dur_ns = 0L; rev_children = [] }
      in
      Mutex.lock tr.mutex;
      let stack = Option.value ~default:[] (Hashtbl.find_opt tr.stacks tid) in
      Hashtbl.replace tr.stacks tid (span :: stack);
      Mutex.unlock tr.mutex;
      fun late_attrs ->
        span.dur_ns <- Int64.sub (Clock.now_ns ()) span.start_ns;
        (match late_attrs with [] -> () | _ -> span.attrs <- span.attrs @ late_attrs);
        if Ring.active () then Ring.record (Ring.Exit (name, span.dur_ns));
        Mutex.lock tr.mutex;
        (match Hashtbl.find_opt tr.stacks tid with
        | Some (top :: rest) when top == span ->
            Hashtbl.replace tr.stacks tid rest;
            (match rest with
            | parent :: _ -> parent.rev_children <- span :: parent.rev_children
            | [] -> add_root tr span)
        | _ ->
            (* The stack was perturbed (span closed out of order, e.g. by
               an exception in a sibling) — keep the data as a root. *)
            add_root tr span);
        Mutex.unlock tr.mutex

let exit ?(attrs = []) h = h attrs

let with_ ?attrs name f =
  (* Fast path: no trace, no flight recorder — just run [f]. *)
  if Atomic.get current = None && not (Ring.active ()) then f ()
  else begin
    let h = enter ?attrs name in
    Fun.protect ~finally:(fun () -> h []) f
  end

let collect f =
  start_trace ();
  match f () with
  | r -> (r, stop_trace ())
  | exception e ->
      ignore (stop_trace ());
      raise e

(* Rebuilding (tests, JSONL import). *)
let make ~name ~attrs ~thread ~start_ns ~dur_ns ~children =
  { name; attrs; thread; start_ns; dur_ns; rev_children = List.rev children }
