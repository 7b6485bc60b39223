module Message = Wire.Message
module Channel = Wire.Channel
module Buf = Wire.Buf
module Commutative = Crypto.Commutative
module Perfect_cipher = Crypto.Perfect_cipher

type sender_report = { v_r_count : int; ops : Protocol.ops }

type receiver_report = {
  matches : (string * string list) list;
  v_s_count : int;
  collisions : string list;
  ops : Protocol.ops;
}

let tag_y_r = "equijoin/Y_R"
let tag_pairs = "equijoin/pairs"
let tag_ext = "equijoin/ext"

(* ext(v) wire format: the value v itself (collision check, §3.2.2
   footnote 2) followed by the records joining on v. *)
let encode_ext v records =
  let w = Buf.writer () in
  Buf.write_bytes w v;
  Buf.write_varint w (List.length records);
  List.iter (Buf.write_bytes w) records;
  Buf.contents w

let decode_ext payload =
  let r = Buf.reader payload in
  let v = Buf.read_bytes r in
  let n = Buf.read_varint r in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (Buf.read_bytes r :: acc) in
  let records = go 0 [] in
  Buf.expect_end r;
  (v, records)

(* Pure (no counter mutation): called from parallel regions; callers
   count the ops afterwards. *)
let encrypt_ext cfg ~kappa payload =
  match cfg.Protocol.cipher with
  | Perfect_cipher.Mul_cipher ->
      Crypto.Group.encode_elt cfg.Protocol.group
        (Perfect_cipher.Mul.encrypt cfg.Protocol.group ~key:kappa payload)
  | Perfect_cipher.Stream_cipher ->
      Perfect_cipher.Stream.encrypt cfg.Protocol.group ~key:kappa payload

let decrypt_ext cfg (ops : Protocol.ops) ~kappa ciphertext =
  ops.Protocol.cipher_ops <- ops.Protocol.cipher_ops + 1;
  match cfg.Protocol.cipher with
  | Perfect_cipher.Mul_cipher ->
      let c =
        match Crypto.Group.decode_elt cfg.Protocol.group ciphertext with
        | Ok c -> c
        | Error e -> raise (Buf.Parse_error ("ext ciphertext: " ^ e))
      in
      Perfect_cipher.Mul.decrypt cfg.Protocol.group ~key:kappa c
  | Perfect_cipher.Stream_cipher ->
      Perfect_cipher.Stream.decrypt cfg.Protocol.group ~key:kappa ciphertext

(* Group records by value, preserving record order within a value. *)
let group_records records =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (v, r) ->
      match Hashtbl.find_opt tbl v with
      | Some rs -> Hashtbl.replace tbl v (r :: rs)
      | None ->
          Hashtbl.add tbl v [ r ];
          order := v :: !order)
    records;
  List.rev_map (fun v -> (v, List.rev (Hashtbl.find tbl v))) !order |> List.rev

let h_ext_bytes = Obs.Metrics.histogram "psi.equijoin.ext_bytes"

let sender cfg ~rng ~records ep =
  Obs.Span.with_ "equijoin/sender" @@ fun () ->
  let ops = Protocol.new_ops () in
  let grouped = group_records records in
  let e_s = Commutative.gen_key cfg.Protocol.group ~rng in
  let e_s' = Commutative.gen_key cfg.Protocol.group ~rng in
  (* Step 3: receive Y_R. *)
  let y_r = Protocol.recv_elements cfg ep tag_y_r in
  (* Step 4: double-encrypt each y under e_S and e'_S, Y_R order.
     Streamed: each chunk is encrypted across the pool while the
     previous chunk is on the wire. The counting batch helpers also
     consult the session cache when one is configured, so a repeat run
     only pays for changed elements. *)
  Obs.Span.with_ "encrypt-peer"
    ~attrs:[ ("n", string_of_int (List.length y_r)) ]
    (fun () ->
      Protocol.send_pairs_stream cfg ep ~tag:tag_pairs
        ~of_chunk:(fun ys ->
          (* Pulled inside the channel's wire/send span: bill it here. *)
          Obs.Span.with_ "encrypt-peer" (fun () ->
              List.combine
                (Protocol.encrypt_encoded_batch cfg ops e_s ys)
                (Protocol.encrypt_encoded_batch cfg ops e_s' ys)))
        y_r);
  (* Step 5: for each v, ship (f_eS(h(v)), K(kappa(v), ext v)), sorted. *)
  let hashed =
    Obs.Span.with_ "hash"
      ~attrs:[ ("n", string_of_int (List.length grouped)) ]
      (fun () -> Protocol.hash_values cfg ops (List.map fst grouped))
  in
  let ext_pairs =
    Obs.Span.with_ "encrypt-own"
      ~attrs:[ ("n", string_of_int (List.length grouped)) ]
      (fun () ->
        (* Both powers of each h(v) through the counting (cache-aware)
           batch helper, then the K-cipher pass over the pool. *)
        let hs = List.map snd hashed in
        let key_parts = Protocol.encrypt_batch cfg ops e_s hs in
        let kappas = Protocol.encrypt_batch cfg ops e_s' hs in
        let tasks =
          List.map2
            (fun ((v, recs), key_part) kappa -> (v, recs, key_part, kappa))
            (List.combine grouped key_parts)
            kappas
        in
        let k_cipher (v, recs, key_part, kappa) =
          (Protocol.encode cfg key_part, encrypt_ext cfg ~kappa (encode_ext v recs))
        in
        match Protocol.pool_of cfg with
        | None -> List.map k_cipher tasks
        | Some pool -> Parallel.Pool.map pool k_cipher tasks)
    |> fun ps ->
    Obs.Span.with_ "reorder" (fun () ->
        List.sort (fun (a, _) (b, _) -> String.compare a b) ps)
  in
  List.iter
    (fun (_, ciphertext) ->
      Obs.Metrics.observe h_ext_bytes (float_of_int (String.length ciphertext)))
    ext_pairs;
  ops.Protocol.cipher_ops <- ops.Protocol.cipher_ops + List.length grouped;
  Channel.send ep (Message.make ~tag:(Protocol.scoped cfg tag_ext) (Message.Ciphertext_pairs ext_pairs));
  { v_r_count = List.length y_r; ops }

let receiver cfg ~rng ~values ep =
  Obs.Span.with_ "equijoin/receiver" @@ fun () ->
  let ops = Protocol.new_ops () in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  let own = Protocol.own_layer cfg ops e_r (Protocol.dedup values) in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_r (List.map fst own);
  (* Step 6: peel our own layer off both components; position i of the
     pair list corresponds to our i-th sorted Y_R entry. *)
  let pairs =
    Protocol.expect_count tag_pairs (List.length own) (Protocol.recv_pairs cfg ep tag_pairs)
  in
  let keyed =
    Obs.Span.with_ "encrypt-peer"
      ~attrs:[ ("n", string_of_int (List.length pairs)) ]
      (fun () ->
        let fes_hs = Protocol.decrypt_encoded_batch cfg ops e_r (List.map fst pairs) in
        let kappas = Protocol.decrypt_encoded_batch cfg ops e_r (List.map snd pairs) in
        List.map2
          (fun ((_, v), fes_h) kappa -> (fes_h, (v, Protocol.decode cfg kappa)))
          (List.combine own fes_hs)
          kappas)
  in
  (* Keyed by S's reply: seeded, so it cannot be ground into one bucket. *)
  let index = Hashtbl.create ~random:true (List.length keyed) in
  List.iter (fun (k, vk) -> Hashtbl.replace index k vk) keyed;
  (* Step 7: match S's ext pairs against our keys and decrypt. *)
  let ext_pairs = Protocol.recv_pairs cfg ep tag_ext in
  Obs.Span.with_ "match"
    ~attrs:[ ("n", string_of_int (List.length ext_pairs)) ]
  @@ fun () ->
  let matches = ref [] in
  let collisions = ref [] in
  List.iter
    (fun (key_part, ciphertext) ->
      match Hashtbl.find_opt index key_part with
      | None -> ()
      | Some (v, kappa) -> (
          match decode_ext (decrypt_ext cfg ops ~kappa ciphertext) with
          | v', records when String.equal v v' -> matches := (v, records) :: !matches
          | _ -> collisions := v :: !collisions
          | exception (Buf.Parse_error _ | Invalid_argument _) ->
              collisions := v :: !collisions))
    ext_pairs;
  {
    matches = List.sort (fun (a, _) (b, _) -> String.compare a b) !matches;
    v_s_count = List.length ext_pairs;
    collisions = List.sort String.compare !collisions;
    ops;
  }
