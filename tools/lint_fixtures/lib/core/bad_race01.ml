(* Seeded-bad fixture for RACE01: mutable state captured by closures
   handed to the domain pool without Atomic/Mutex mediation. *)

let tally pool xs =
  let hits = ref 0 in
  let _ = Pool.map pool (fun x -> hits := !hits + x) xs (* lint-expect: RACE01 *) in
  !hits

let index pool xs =
  let tbl = Hashtbl.create 16 in
  let _ = Pool.map pool (fun x -> Hashtbl.replace tbl x true) xs (* lint-expect: RACE01 *) in
  tbl

(* In-place mutation of a captured parameter (no mutable constructor in
   sight) must be caught too. *)
let log_async buf =
  Domain.spawn (fun () -> Buffer.add_string buf "x") (* lint-expect: RACE01, DOM01 *)

type counter = { mutable n : int }

let bump pool c xs =
  Pool.map pool (fun x -> c.n <- c.n + x) xs (* lint-expect: RACE01 *)

let fill pool (arr : int array) xs =
  Pool.map_chunks pool (fun c -> List.iter (fun x -> arr.(x) <- x) c; c) xs (* lint-expect: RACE01 *)

(* A chunk-level map hands its closure to the pool just as [map] does. *)
let count_chunks pool xs =
  let n = ref 0 in
  Pool.map_chunks pool (fun c -> n := !n + List.length c; c) xs (* lint-expect: RACE01 *)

(* A party closure handed to Pool.fork runs on a domain of its own. *)
let party_total xs =
  let total = ref 0 in
  Pool.await (Pool.fork (fun () -> List.iter (fun x -> total := !total + x) xs)) (* lint-expect: RACE01 *)

(* Both parties add to one tally, as a session's bucket loop does: the
   sender closure, a partial application of a local function, mutates
   the captured record through a function of this file. *)
type ops = { mutable hashes : int; mutable encryptions : int }

let add_ops dst (src : ops) =
  dst.hashes <- dst.hashes + src.hashes;
  dst.encryptions <- dst.encryptions + src.encryptions

let execute drbg run_party =
  let tally = { hashes = 0; encryptions = 0 } in
  let play party d ep = add_ops tally (run_party party d ep) in
  Protocol.launch drbg ~sender:(play `Sender) ~receiver:(play `Receiver) (* lint-expect: RACE01 *)
