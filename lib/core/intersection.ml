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
  let e_s = Commutative.gen_key cfg.Protocol.group ~rng in
  (* Steps 1-2: hash, encrypt and reorder own set. *)
  let y_s = List.map fst (Protocol.own_layer cfg ops e_s (Protocol.dedup values)) in
  (* Step 3: receive Y_R. *)
  let y_r = Protocol.recv_elements cfg ep tag_y_r in
  (* Step 4(a): ship Y_S (fully computed — the sort is a shuffle point —
     so this streams for I/O chunking only). *)
  Protocol.send_elements_stream cfg ep ~tag:tag_y_s y_s;
  (* Step 4(b): encrypt each y in Y_R, preserving R's order (the §6.1
     optimization: no need to echo y itself). Streamed: chunk k+1 is
     encrypted while chunk k is on the wire. *)
  Protocol.send_encrypted_stream cfg ops e_s ep ~tag:tag_y_r_enc y_r;
  { v_r_count = List.length y_r; ops }

let receiver cfg ~rng ~values ep =
  Obs.Span.with_ "intersection/receiver" @@ fun () ->
  let ops = Protocol.new_ops () in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  (* Steps 1-3: send Y_R, remembering which encoding belongs to which
     value. *)
  let own = Protocol.own_layer cfg ops e_r (Protocol.dedup values) in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_r (List.map fst own);
  (* Steps 4(a) and 5: Z_S = f_eR(Y_S). *)
  let y_s = Protocol.recv_elements cfg ep tag_y_s in
  let z_s = Protocol.peer_layer cfg ops e_r y_s in
  (* Step 4(b) arrival: f_eS(f_eR(h(v))) in the order of our sorted Y_R,
     so position i corresponds to the i-th entry of [own]. *)
  let y_r_enc =
    Protocol.expect_count tag_y_r_enc (List.length own)
      (Protocol.recv_elements cfg ep tag_y_r_enc)
  in
  (* Step 6: v in the intersection iff f_eS(f_eR(h(v))) in Z_S. *)
  let intersection =
    Obs.Span.with_ "match" (fun () ->
        let in_z_s = Protocol.member_of z_s in
        List.fold_left2
          (fun acc z (_, v) -> if in_z_s z then v :: acc else acc)
          [] y_r_enc own
        |> List.sort String.compare)
  in
  { intersection; v_s_count = List.length y_s; ops }
