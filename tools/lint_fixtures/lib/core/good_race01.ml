(* Clean counterpart to bad_race01.ml: pure per-element closures, and
   shared state mediated by Atomic or a Mutex, are fine. *)

let double pool xs = Pool.map pool (fun x -> x * 2) xs

let tally pool xs =
  let hits = Atomic.make 0 in
  let _ = Pool.map pool (fun x -> Atomic.fetch_and_add hits x) xs in
  Atomic.get hits

let guarded pool lock tbl xs =
  Pool.map pool
    (fun x ->
      Mutex.lock lock;
      Hashtbl.replace tbl x true;
      Mutex.unlock lock)
    xs

(* Reading captured immutable state is not a race. *)
let lookup pool table xs = Pool.map pool (fun x -> List.assoc x table) xs

(* A tally both parties add to, under a lock. *)
type ops = { mutable hashes : int }

let add_ops dst (src : ops) = dst.hashes <- dst.hashes + src.hashes

let execute drbg run_party =
  let tally = { hashes = 0 } in
  let lock = Mutex.create () in
  let play party d ep =
    let o = run_party party d ep in
    Mutex.protect lock (fun () -> add_ops tally o)
  in
  Protocol.launch drbg ~sender:(play `Sender) ~receiver:(play `Receiver)

(* The receiver runs on the caller's thread: its own ref is no race. *)
let count_received run_sender recv =
  let n = ref 0 in
  let _ = Runner.run ~sender:run_sender ~receiver:(fun ep -> n := recv ep) in
  !n
