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
  let y_r = Protocol.elements_of (Protocol.recv_tagged ep tag_y_r) in
  Channel.send ep (Message.make ~tag:tag_pub (Message.Elements [ Paillier.encode_public pub ]));
  (* Step 2: second layer on R's set, Y_R order. *)
  let y_r_enc = Protocol.encrypt_encoded_batch cfg ops e_s y_r in
  Channel.send ep (Message.make ~tag:tag_y_r_enc (Message.Elements y_r_enc));
  (* Step 3: (f_eS(h(v)), Enc(x_v)) sorted by the first component. *)
  let hashed = Protocol.hash_values cfg ops (List.map fst grouped) in
  let pairs =
    List.map2
      (fun (v, x) (v', h) ->
        assert (String.equal v v');
        ( Protocol.encode cfg (Protocol.encrypt_elt cfg ops e_s h),
          Paillier.encode_ciphertext pub (Paillier.encrypt pub ~rng (Nat.of_int x)) ))
      grouped hashed
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  ops.Protocol.cipher_ops <- ops.Protocol.cipher_ops + List.length grouped;
  Channel.send ep (Message.make ~tag:tag_pairs (Message.Ciphertext_pairs pairs));
  (* Step 5: decrypt the blinded aggregate and return the plaintext. *)
  let blinded =
    match Protocol.elements_of (Protocol.recv_tagged ep tag_blinded) with
    | [ c ] -> Paillier.decode_ciphertext pub c
    | _ -> failwith "protocol error: expected one blinded ciphertext"
  in
  let masked_sum = Paillier.decrypt sec blinded in
  Channel.send ep
    (Message.make ~tag:tag_sum (Message.Elements [ Nat.to_bytes_be masked_sum ]));
  { v_r_count = List.length y_r; ops }

let receiver cfg ~rng ~values ep =
  let ops = Protocol.new_ops () in
  let v_r = Protocol.dedup values in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  let encoded =
    List.combine (Protocol.hash_encrypt_encode cfg ops e_r v_r) v_r
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Channel.send ep (Message.make ~tag:tag_y_r (Message.Elements (List.map fst encoded)));
  let pub =
    match Protocol.elements_of (Protocol.recv_tagged ep tag_pub) with
    | [ p ] -> Paillier.decode_public p
    | _ -> failwith "protocol error: expected one public key"
  in
  (* Strip our layer to obtain f_eS(h(v)) for our own values. *)
  let y_r_enc = Protocol.elements_of (Protocol.recv_tagged ep tag_y_r_enc) in
  if List.length y_r_enc <> List.length encoded then
    failwith "protocol error: Y_R_enc count mismatch"
  else begin
    let index = Hashtbl.create (List.length encoded) in
    List.iter2
      (fun z (_, v) ->
        let fes_h = Protocol.decrypt_elt cfg ops e_r (Protocol.decode cfg z) in
        Hashtbl.replace index (Protocol.encode cfg fes_h) v)
      y_r_enc encoded;
    let pairs = Protocol.pairs_of (Protocol.recv_tagged ep tag_pairs) in
    let matched =
      List.filter_map
        (fun (key_part, ct) ->
          Option.map (fun v -> (v, ct)) (Hashtbl.find_opt index key_part))
        pairs
    in
    (* Homomorphically sum the matched ciphertexts, blind, and ask S to
       decrypt. *)
    let rho = Bignum.Nat_rand.below ~rng (Paillier.modulus pub) in
    let acc = ref (Paillier.encrypt pub ~rng rho) in
    List.iter
      (fun (_, ct) -> acc := Paillier.add pub !acc (Paillier.decode_ciphertext pub ct))
      matched;
    ops.Protocol.cipher_ops <- ops.Protocol.cipher_ops + List.length matched + 1;
    Channel.send ep
      (Message.make ~tag:tag_blinded
         (Message.Elements [ Paillier.encode_ciphertext pub !acc ]));
    let masked_sum =
      match Protocol.elements_of (Protocol.recv_tagged ep tag_sum) with
      | [ s ] -> Nat.of_bytes_be s
      | _ -> failwith "protocol error: expected one sum"
    in
    let n = Paillier.modulus pub in
    let sum = Bignum.Modular.sub (Nat.rem masked_sum n) rho n in
    {
      intersection = List.sort String.compare (List.map fst matched);
      sum = Nat.to_int_exn sum;
      v_s_count = List.length pairs;
      ops;
    }
  end

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
