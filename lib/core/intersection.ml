module Message = Wire.Message
module Channel = Wire.Channel
module Commutative = Crypto.Commutative

type sender_report = { v_r_count : int; ops : Protocol.ops }

type receiver_report = {
  intersection : string list;
  v_s_count : int;
  ops : Protocol.ops;
}

let tag_y_r = "intersection/Y_R"
let tag_y_s = "intersection/Y_S"
let tag_y_r_enc = "intersection/Y_R_enc"

let sender cfg ~rng ~values ep =
  Obs.Span.with_ "intersection/sender" @@ fun () ->
  let ops = Protocol.new_ops () in
  let v_s = Protocol.dedup values in
  let e_s = Commutative.gen_key cfg.Protocol.group ~rng in
  (* Step 1-2: hash and encrypt own set. *)
  let y_s =
    Protocol.hash_encrypt_encode cfg ops e_s v_s
    |> fun encoded -> Obs.Span.with_ "reorder" (fun () -> Protocol.sort_encoded encoded)
  in
  (* Step 3: receive Y_R. *)
  let y_r = Protocol.elements_of (Protocol.recv_tagged ep (Protocol.scoped cfg tag_y_r)) in
  (* Step 4(a): ship Y_S (fully computed — the sort is a shuffle point —
     so this streams for I/O chunking only). *)
  Protocol.send_elements_stream cfg ep ~tag:(Protocol.scoped cfg tag_y_s) y_s;
  (* Step 4(b): encrypt each y in Y_R, preserving R's order (the §6.1
     optimization: no need to echo y itself). Streamed: chunk k+1 is
     encrypted while chunk k is on the wire. *)
  Obs.Span.with_ "encrypt-peer"
    ~attrs:[ ("n", string_of_int (List.length y_r)) ]
    (fun () -> Protocol.send_encrypted_stream cfg ops e_s ep ~tag:(Protocol.scoped cfg tag_y_r_enc) y_r);
  { v_r_count = List.length y_r; ops }

let receiver cfg ~rng ~values ep =
  Obs.Span.with_ "intersection/receiver" @@ fun () ->
  let ops = Protocol.new_ops () in
  let v_r = Protocol.dedup values in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  (* Step 1-2: hash and encrypt own set, remembering which encoding
     belongs to which value. *)
  let encoded =
    List.combine (Protocol.hash_encrypt_encode cfg ops e_r v_r) v_r
    |> fun pairs ->
    Obs.Span.with_ "reorder" (fun () ->
        List.sort (fun (a, _) (b, _) -> String.compare a b) pairs)
  in
  (* Step 3: send Y_R reordered lexicographically. *)
  Protocol.send_elements_stream cfg ep ~tag:(Protocol.scoped cfg tag_y_r) (List.map fst encoded);
  (* Step 4(a): receive Y_S. *)
  let y_s = Protocol.elements_of (Protocol.recv_tagged ep (Protocol.scoped cfg tag_y_s)) in
  (* Step 5: Z_S = f_eR(Y_S). *)
  let z_s =
    Obs.Span.with_ "encrypt-peer"
      ~attrs:[ ("n", string_of_int (List.length y_s)) ]
      (fun () ->
        List.fold_left
          (fun acc z -> Sset.add z acc)
          Sset.empty
          (Protocol.encrypt_encoded_batch cfg ops e_r y_s))
  in
  (* Step 4(b) arrival: f_eS(f_eR(h(v))) in the order of our sorted Y_R,
     so position i corresponds to the i-th entry of [encoded]. *)
  let y_r_enc = Protocol.elements_of (Protocol.recv_tagged ep (Protocol.scoped cfg tag_y_r_enc)) in
  if List.length y_r_enc <> List.length encoded then
    failwith "protocol error: Y_R_enc count mismatch"
  else begin
    (* Step 6: v in the intersection iff f_eS(f_eR(h(v))) in Z_S. *)
    let intersection =
      Obs.Span.with_ "match" (fun () ->
          List.fold_left2
            (fun acc z (_, v) -> if Sset.mem z z_s then v :: acc else acc)
            [] y_r_enc encoded
          |> List.sort String.compare)
    in
    { intersection; v_s_count = List.length y_s; ops }
  end
