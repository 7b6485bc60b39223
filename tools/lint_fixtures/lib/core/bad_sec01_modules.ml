(* Seeded-bad fixture for SEC01 in module bodies written in expression
   position: a first-class module and the structure argument of a local
   functor application. Their bindings are items the analyses walk, so
   a leak inside one is reported like any other. *)

module type CONN = sig
  val send_pad : Channel.endpoint -> unit
end

let leaky_conn st : (module CONN) =
  (module struct
    let send_pad ep = Channel.send ep (Drbg.generate st 32) (* lint-expect: SEC01 *)
  end)

let sorted_keys st ep keys =
  let module Keyed = Set.Make (struct
    type t = string

    let compare a b =
      Channel.send ep (Drbg.generate st 8); (* lint-expect: SEC01 *)
      String.compare a b
  end) in
  Keyed.elements (Keyed.of_list keys)
