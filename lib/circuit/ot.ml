module Group = Crypto.Group
module Message = Wire.Message
module Channel = Wire.Channel
module Nat = Bignum.Nat

let tag_setup = "ot/setup"
let tag_keys = "ot/keys"
let tag_payload = "ot/payload"

(* Keystream for one branch of one transfer, derived from the shared
   group element. *)
let pad g key ~index ~branch ~len =
  let seed =
    Printf.sprintf "ot:pad:%d:%d:%s" index branch (Group.encode_elt g key)
  in
  Crypto.Drbg.generate (Crypto.Drbg.create ~seed) len

let xor a b = String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let elements_of = function
  | Message.Elements es -> es
  | Message.Element_pairs _ | Message.Element_triples _ | Message.Ciphertext_pairs _ ->
      Wire.Errors.protocol_errorf "ot: unexpected payload shape"

let triples_of = function
  | Message.Element_triples ts -> ts
  | Message.Elements _ | Message.Element_pairs _ | Message.Ciphertext_pairs _ ->
      Wire.Errors.protocol_errorf "ot: unexpected payload shape"

(* The peer's group elements: a malformed one is its violation. *)
let decode g s =
  match Group.decode_elt g s with
  | Ok x -> x
  | Error e -> Wire.Errors.peer_violationf "ot: %s" e

let recv_tagged ep tag =
  let m = Channel.recv ep in
  if m.Message.tag <> tag then Wire.Errors.protocol_errorf "ot: expected %s" tag
  else m.Message.payload

let sender g ~rng ~pairs ep =
  Array.iter
    (fun (m0, m1) ->
      if String.length m0 <> String.length m1 then
        invalid_arg "Ot.sender: message pair length mismatch")
    pairs;
  (* Setup: a random element whose discrete log nobody knows on the
     receiver side. *)
  let c = Group.random_element g ~rng in
  Channel.send ep (Message.make ~tag:tag_setup (Message.Elements [ Group.encode_elt g c ]));
  let pks = elements_of (recv_tagged ep tag_keys) in
  if List.length pks <> Array.length pairs then
    Wire.Errors.protocol_errorf "ot: key count mismatch"
  else begin
    let payload =
      List.mapi
        (fun i pk0_enc ->
          let pk0 = decode g pk0_enc in
          let pk1 = Group.mul g c (Group.inv_elt g pk0) in
          let r = Group.random_exponent g ~rng in
          let gr = Group.pow g (Group.generator g) r in
          let m0, m1 = pairs.(i) in
          let e0 = xor m0 (pad g (Group.pow g pk0 r) ~index:i ~branch:0 ~len:(String.length m0)) in
          let e1 = xor m1 (pad g (Group.pow g pk1 r) ~index:i ~branch:1 ~len:(String.length m1)) in
          (Group.encode_elt g gr, e0, e1))
        pks
    in
    Channel.send ep (Message.make ~tag:tag_payload (Message.Element_triples payload))
  end

let receiver g ~rng ~choices ep =
  let c =
    match elements_of (recv_tagged ep tag_setup) with
    | [ e ] -> decode g e
    | _ -> Wire.Errors.protocol_errorf "ot: bad setup"
  in
  let secrets = Array.map (fun _ -> Group.random_exponent g ~rng) choices in
  let pk0s =
    Array.to_list
      (Array.mapi
         (fun i choice ->
           let gk = Group.pow g (Group.generator g) secrets.(i) in
           let pk0 = if choice then Group.mul g c (Group.inv_elt g gk) else gk in
           Group.encode_elt g pk0)
         choices)
  in
  Channel.send ep (Message.make ~tag:tag_keys (Message.Elements pk0s));
  let payload = Array.of_list (triples_of (recv_tagged ep tag_payload)) in
  if Array.length payload <> Array.length choices then
    Wire.Errors.protocol_errorf "ot: payload count mismatch"
  else
    Array.mapi
      (fun i choice ->
        let gr_enc, e0, e1 = payload.(i) in
        let gr = decode g gr_enc in
        let key = Group.pow g gr secrets.(i) in
        let e = if choice then e1 else e0 in
        xor e (pad g key ~index:i ~branch:(if choice then 1 else 0) ~len:(String.length e)))
      choices

let run g ?(seed = "ot-run") ~pairs ~choices () =
  let drbg = Crypto.Drbg.create ~seed in
  let s_rng = Crypto.Drbg.to_rng (Crypto.Drbg.split drbg ~label:"sender") in
  let r_rng = Crypto.Drbg.to_rng (Crypto.Drbg.split drbg ~label:"receiver") in
  Wire.Runner.run
    ~sender:(fun ep -> sender g ~rng:s_rng ~pairs ep)
    ~receiver:(fun ep -> receiver g ~rng:r_rng ~choices ep)
