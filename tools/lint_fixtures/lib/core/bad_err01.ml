(* Seeded-bad fixture for ERR01: receive paths that reject the peer's
   frame with an untyped Failure instead of a Wire.Errors class. *)

let recv_count ep =
  match Wire.Channel.recv ep with
  | { Wire.Message.payload = Wire.Message.Elements [ n ]; _ } -> int_of_string n
  | _ -> failwith "expected a count" (* lint-expect: ERR01 *)

let recv_keys cfg ep =
  match Protocol.recv_elements cfg ep "keys" with
  | [] -> raise (Failure "no keys") (* lint-expect: ERR01 *)
  | ks -> ks

(* A local invariant, with no frame read in the binding, may fail. *)
let check_sorted xs = if List.sort compare xs <> xs then failwith "unsorted" else xs
