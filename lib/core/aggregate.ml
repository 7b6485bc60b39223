module Message = Wire.Message
module Channel = Wire.Channel
module Commutative = Crypto.Commutative
module Paillier = Crypto.Paillier
module Nat = Bignum.Nat

type sender_report = { v_r_count : int; ops : Protocol.ops }

type receiver_report = {
  intersection : string list;
  sum : int;
  v_s_count : int;
  ops : Protocol.ops;
}

let tag_y_r = "aggregate/Y_R"
let tag_pub = "aggregate/pub"
let tag_y_r_enc = "aggregate/Y_R_enc"
let tag_pairs = "aggregate/pairs"
let tag_blinded = "aggregate/blinded"
let tag_sum = "aggregate/sum"

(* Group records and total the per-value contributions. *)
let totals records =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (v, x) ->
      if x < 0 then invalid_arg "Aggregate: negative contribution"
      else Hashtbl.replace tbl v (x + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    records;
  Hashtbl.fold (fun v x acc -> (v, x) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sender cfg ~rng ?(key_bits = 512) ~records ep =
  let ops = Protocol.new_ops () in
  let grouped = totals records in
  let e_s = Commutative.gen_key cfg.Protocol.group ~rng in
  let pub, sec = Paillier.keygen ~rng ~bits:key_bits in
  (* Step 1: receive Y_R; publish the Paillier key. *)
  let y_r = Protocol.recv_elements cfg ep tag_y_r in
  Protocol.send_one cfg ep ~tag:tag_pub (Paillier.encode_public pub);
  (* Step 2: second layer on R's set, Y_R order, streamed. *)
  Protocol.send_encrypted_stream cfg ops e_s ep ~tag:tag_y_r_enc y_r;
  (* Step 3: (f_eS(h(v)), Enc(x_v)) sorted by the first component. The
     Paillier encryptions draw from [rng] in value order. *)
  let enc_x = Hashtbl.create (List.length grouped) in
  List.iter
    (fun (v, x) ->
      Hashtbl.replace enc_x v
        (Paillier.encode_ciphertext pub (Paillier.encrypt pub ~rng (Nat.of_int x))))
    grouped;
  let pairs =
    List.map
      (fun (y, v) -> (y, Hashtbl.find enc_x v))
      (Protocol.own_layer cfg ops e_s (List.map fst grouped))
  in
  ops.Protocol.cipher_ops <- ops.Protocol.cipher_ops + List.length grouped;
  Channel.send ep
    (Message.make ~tag:(Protocol.scoped cfg tag_pairs) (Message.Ciphertext_pairs pairs));
  (* Step 5: decrypt the blinded aggregate and return the plaintext. *)
  let blinded = Protocol.peer_ciphertext pub (Protocol.recv_one cfg ep tag_blinded) in
  let masked_sum = Paillier.decrypt sec blinded in
  Protocol.send_one cfg ep ~tag:tag_sum (Nat.to_bytes_be masked_sum);
  { v_r_count = List.length y_r; ops }

(* R's last step: strip the pad [rho] it drew from the sum S decrypted
   for it. The result is S's total over the intersection whatever [rho]
   was, so it is R's protocol output, not DRBG-derived data (SEC01 lists
   [Aggregate.unblind] among its sanitizers). *)
let unblind ~n masked_sum rho = Bignum.Modular.sub (Nat.rem masked_sum n) rho n

let receiver cfg ~rng ~values ep =
  let ops = Protocol.new_ops () in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  let own = Protocol.own_layer cfg ops e_r (Protocol.dedup values) in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_r (List.map fst own);
  let pub = Protocol.peer_public (Protocol.recv_one cfg ep tag_pub) in
  (* Strip our layer to obtain f_eS(h(v)) for our own values. *)
  let y_r_enc =
    Protocol.expect_count tag_y_r_enc (List.length own)
      (Protocol.recv_elements cfg ep tag_y_r_enc)
  in
  let fes_hs =
    Obs.Span.with_ "encrypt-peer"
      ~attrs:[ ("n", string_of_int (List.length y_r_enc)) ]
      (fun () -> Protocol.decrypt_encoded_batch cfg ops e_r y_r_enc)
  in
  let pairs = Protocol.recv_pairs cfg ep tag_pairs in
  let matched =
    Obs.Span.with_ "match" (fun () ->
        (* Keyed by S's reply: seeded, so it cannot be ground into one
           bucket. *)
        let index = Hashtbl.create ~random:true (List.length own) in
        List.iter2 (fun fes_h (_, v) -> Hashtbl.replace index fes_h v) fes_hs own;
        List.filter_map
          (fun (key_part, ct) -> Option.map (fun v -> (v, ct)) (Hashtbl.find_opt index key_part))
          pairs)
  in
  (* Homomorphically sum the matched ciphertexts, blind, and ask S to
     decrypt. *)
  let rho = Bignum.Nat_rand.below ~rng (Paillier.modulus pub) in
  let acc = ref (Paillier.encrypt pub ~rng rho) in
  List.iter
    (fun (_, ct) -> acc := Paillier.add pub !acc (Protocol.peer_ciphertext pub ct))
    matched;
  ops.Protocol.cipher_ops <- ops.Protocol.cipher_ops + List.length matched + 1;
  Protocol.send_one cfg ep ~tag:tag_blinded (Paillier.encode_ciphertext pub !acc);
  let masked_sum = Nat.of_bytes_be (Protocol.recv_one cfg ep tag_sum) in
  let sum = unblind ~n:(Paillier.modulus pub) masked_sum rho in
  {
    intersection = List.sort String.compare (List.map fst matched);
    sum = Nat.to_int_exn sum;
    v_s_count = List.length pairs;
    ops;
  }

let exact_ops ~v_s ~v_r ~intersection =
  (v_s + v_r, v_s + (3 * v_r), v_s + intersection + 1)

let estimate (p : Cost_model.params) ?(paillier_ratio = 4.0) ~v_s ~v_r () =
  let v_s_f = float_of_int v_s and v_r_f = float_of_int v_r in
  let ce = v_s_f +. (3. *. v_r_f) in
  (* Paillier work: |V_S| encryptions + 1 decryption + 1 blinding, at
     paillier_ratio x Ce each; homomorphic adds are negligible. *)
  let paillier = (v_s_f +. 2.) *. paillier_ratio in
  let comm_bits =
    ((v_s_f +. (2. *. v_r_f)) *. float_of_int p.Cost_model.k_bits)
    (* ciphertexts are 2x the Paillier modulus (n^2); take k as the
       modulus class *)
    +. ((v_s_f +. 2.) *. 2. *. float_of_int p.Cost_model.k_bits)
  in
  let encryptions = ce +. paillier in
  {
    Cost_model.encryptions;
    comp_seconds =
      encryptions *. p.Cost_model.ce_seconds /. float_of_int p.Cost_model.processors;
    comm_bits;
    comm_seconds = comm_bits /. p.Cost_model.bandwidth_bits_per_s;
  }

let run cfg ?(seed = "aggregate-seed") ?key_bits ~sender_records ~receiver_values () =
  Protocol.launch (Crypto.Drbg.create ~seed)
    (* psi-lint: allow SEC01 — rng feeds Paillier keygen/encryption inside the party; only public keys and ciphertexts reach the channel *)
    ~sender:(fun d ep -> sender cfg ~rng:(Crypto.Drbg.to_rng d) ?key_bits ~records:sender_records ep)
    ~receiver:(fun d ep -> receiver cfg ~rng:(Crypto.Drbg.to_rng d) ~values:receiver_values ep)
