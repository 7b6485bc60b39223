(* Seeded-bad fixture for CT02 in module bodies written in expression
   position: a first-class module and the structure argument of a local
   functor application, each branching on DRBG output. *)

module type PADDED = sig
  val pad : int -> int
end

let secret_padding st : (module PADDED) =
  (module struct
    let pad n =
      let key = Drbg.generate st 32 in
      if key = "" then n else n + 1 (* lint-expect: CT02 *)
  end)

let distinct_secrets st xs =
  let module Secrets = Set.Make (struct
    type t = string

    let compare a b =
      let r = Drbg.generate st 1 in
      if r = "" then 0 else String.compare a b (* lint-expect: CT02 *)
  end) in
  Secrets.elements (Secrets.of_list xs)
