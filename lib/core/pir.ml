module Message = Wire.Message
module Channel = Wire.Channel
module Buf = Wire.Buf
module Paillier = Crypto.Paillier
module Nat = Bignum.Nat

type sender_report = { record_count : int; record_bytes : int }
type receiver_report = { record : string }

let tag_query = "pir/query"
let tag_reply = "pir/reply"

(* Plaintext chunks must stay below the Paillier modulus. *)
let chunk_bytes pub = ((Nat.num_bits (Paillier.modulus pub) - 2) / 8) - 1

(* Records are framed (length-prefixed) then padded to a common public
   width, so the retrieved record's true length is recoverable. *)
let frame record =
  let w = Buf.writer () in
  Buf.write_bytes w record;
  Buf.contents w

let unframe s =
  let r = Buf.reader s in
  Buf.read_bytes r (* trailing padding is permitted *)

let sender ~rng ~records ep =
  let framed = List.map frame records in
  let width = List.fold_left (fun acc s -> Stdlib.max acc (String.length s)) 1 framed in
  let padded =
    List.map (fun s -> s ^ String.make (width - String.length s) '\x00') framed
  in
  let pub, query =
    match Protocol.elements_of (Protocol.recv_tagged ep tag_query) with
    | pub_enc :: cts ->
        let pub = Protocol.peer_public pub_enc in
        (pub, List.map (Protocol.peer_ciphertext pub) cts)
    | [] -> Wire.Errors.protocol_errorf "pir: empty query"
  in
  if List.length query <> List.length records then
    Wire.Errors.protocol_errorf "pir: query of %d ciphertexts for %d records"
      (List.length query) (List.length records)
  else begin
    let cb = chunk_bytes pub in
    let n_chunks = (width + cb - 1) / cb in
    (* chunk value of record j, chunk k *)
    let chunk_of s k =
      let lo = k * cb in
      let len = Stdlib.min cb (width - lo) in
      Nat.of_bytes_be (String.sub s lo len)
    in
    let reply_chunks =
      List.init n_chunks (fun k ->
          let acc =
            List.fold_left2
              (fun acc q s -> Paillier.add pub acc (Paillier.mul_plain pub q (chunk_of s k)))
              (Paillier.zero pub ~rng) query padded
          in
          Paillier.encode_ciphertext pub acc)
    in
    let header =
      let w = Buf.writer () in
      Buf.write_varint w width;
      Buf.contents w
    in
    Channel.send ep (Message.make ~tag:tag_reply (Message.Elements (header :: reply_chunks)));
    { record_count = List.length records; record_bytes = width }
  end

let receiver ~rng ?(key_bits = 512) ~count ~index ep =
  if index < 0 || index >= count then invalid_arg "Pir.receiver: index out of range"
  else begin
    let pub, sec = Paillier.keygen ~rng ~bits:key_bits in
    let query =
      List.init count (fun j ->
          Paillier.encode_ciphertext pub
            (Paillier.encrypt pub ~rng (if j = index then Nat.one else Nat.zero)))
    in
    Channel.send ep
      (Message.make ~tag:tag_query (Message.Elements (Paillier.encode_public pub :: query)));
    match Protocol.elements_of (Protocol.recv_tagged ep tag_reply) with
    | header :: chunks ->
        let cb = chunk_bytes pub in
        let n = List.length chunks in
        (* The width is the peer's claim; it sizes nothing until the
           chunks actually sent are shown to hold exactly that many
           bytes. *)
        let width =
          match
            let r = Buf.reader header in
            let w = Buf.read_varint r in
            Buf.expect_end r;
            w
          with
          | w when w > (n - 1) * cb && w <= n * cb -> w
          | w -> Wire.Errors.protocol_errorf "pir: width %d does not fit %d chunk(s)" w n
          | exception Buf.Parse_error msg ->
              Wire.Errors.protocol_errorf "pir: malformed reply header: %s" msg
        in
        let buf = Buffer.create width in
        List.iteri
          (fun k ct ->
            let lo = k * cb in
            let len = Stdlib.min cb (width - lo) in
            let v = Paillier.decrypt sec (Protocol.peer_ciphertext pub ct) in
            Buffer.add_string buf (Nat.to_bytes_be ~width:len v))
          chunks;
        (match unframe (Buffer.contents buf) with
        | record -> { record }
        | exception Buf.Parse_error msg ->
            Wire.Errors.protocol_errorf "pir: malformed record: %s" msg)
    | [] -> Wire.Errors.protocol_errorf "pir: empty reply"
  end

let run ?(seed = "pir-seed") ?key_bits ~records ~index () =
  let drbg = Crypto.Drbg.create ~seed in
  let s_rng = Crypto.Drbg.to_rng (Crypto.Drbg.split drbg ~label:"sender") in
  let r_rng = Crypto.Drbg.to_rng (Crypto.Drbg.split drbg ~label:"receiver") in
  Wire.Runner.run
    ~sender:(fun ep -> sender ~rng:s_rng ~records ep)
    ~receiver:(fun ep ->
      (* psi-lint: allow SEC01 — rng feeds Paillier query keygen/encryption; only the public key and ciphertexts cross the wire *)
      receiver ~rng:r_rng ?key_bits ~count:(List.length records) ~index ep)
