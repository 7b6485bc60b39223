module Message = Wire.Message
module Commutative = Crypto.Commutative

type sender_report = { v_r_count : int; ops : Protocol.ops }
type receiver_report = { size : int; v_s_count : int; ops : Protocol.ops }

let tag_y_r = "intersection_size/Y_R"
let tag_y_s = "intersection_size/Y_S"
let tag_z_r = "intersection_size/Z_R"

(* S's half, up to Z_R: steps 1-4(a), then 4(b), Z_R = f_eS(Y_R)
   crucially re-sorted, destroying the pairing with Y_R. *)
let sender_half cfg ~rng ~values ep =
  let ops = Protocol.new_ops () in
  let e_s = Commutative.gen_key cfg.Protocol.group ~rng in
  let y_s = List.map fst (Protocol.own_layer cfg ops e_s (Protocol.dedup values)) in
  let y_r = Protocol.recv_elements cfg ep tag_y_r in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_s y_s;
  let z_r = Protocol.peer_layer cfg ops e_s y_r in
  (Obs.Span.with_ "reorder" (fun () -> Protocol.sort_encoded z_r), ops)

(* R's half, up to Z_S = f_eR(Y_S), in Y_S's order. *)
let receiver_half cfg ~rng ~values ep =
  let ops = Protocol.new_ops () in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  let y_r = List.map fst (Protocol.own_layer cfg ops e_r (Protocol.dedup values)) in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_r y_r;
  let y_s = Protocol.recv_elements cfg ep tag_y_s in
  (Protocol.peer_layer cfg ops e_r y_s, ops)

(* Step 6: |Z_R ∩ Z_S|. *)
let common z_r z_s =
  let in_z_s = Protocol.member_of z_s in
  List.fold_left (fun n z -> if in_z_s z then n + 1 else n) 0 z_r

let sender cfg ~rng ~values ep =
  Obs.Span.with_ "intersection_size/sender" @@ fun () ->
  let z_r, ops = sender_half cfg ~rng ~values ep in
  Protocol.send_elements_stream cfg ep ~tag:tag_z_r z_r;
  { v_r_count = List.length z_r; ops }

let receiver cfg ~rng ~values ep =
  Obs.Span.with_ "intersection_size/receiver" @@ fun () ->
  let z_s, ops = receiver_half cfg ~rng ~values ep in
  let z_r = Protocol.recv_elements cfg ep tag_z_r in
  let size = Obs.Span.with_ "match" (fun () -> common z_r z_s) in
  { size; v_s_count = List.length z_s; ops }

(* ------------------------------------------------------------------ *)
(* Figure 2 variant: Z_R and Z_S go to the researcher T.               *)
(* ------------------------------------------------------------------ *)

type third_party_report = { size : int; total_bytes : int; ops : Protocol.ops }

let tag_z_r_to_t = "intersection_size/Z_R->T"
let tag_z_s_to_t = "intersection_size/Z_S->T"

let run_to_third_party cfg ?(seed = "intersection-size-3p") ~sender_values ~receiver_values
    () =
  let outcome =
    Protocol.launch (Crypto.Drbg.create ~seed)
      ~sender:(fun d ep ->
        Obs.Span.with_ "intersection_size_3p/sender" @@ fun () ->
        sender_half cfg ~rng:(Crypto.Drbg.to_rng d) ~values:sender_values ep)
      ~receiver:(fun d ep ->
        Obs.Span.with_ "intersection_size_3p/receiver" @@ fun () ->
        let z_s, ops = receiver_half cfg ~rng:(Crypto.Drbg.to_rng d) ~values:receiver_values ep in
        (Obs.Span.with_ "reorder" (fun () -> Protocol.sort_encoded z_s), ops))
  in
  let z_r, s_ops = outcome.Wire.Runner.sender_result in
  let z_s, r_ops = outcome.Wire.Runner.receiver_result in
  (* Ship both Z sets to T and account the bytes those messages occupy. *)
  let to_t_r = Message.make ~tag:(Protocol.scoped cfg tag_z_r_to_t) (Message.Elements z_r) in
  let to_t_s = Message.make ~tag:(Protocol.scoped cfg tag_z_s_to_t) (Message.Elements z_s) in
  let total_bytes =
    outcome.Wire.Runner.total_bytes + Message.size to_t_r + Message.size to_t_s
  in
  let ops = Protocol.total s_ops r_ops in
  let size = Obs.Span.with_ "match" (fun () -> common z_r z_s) in
  (* Distinct op name: the third-party variant ships Z_R and Z_S to T on
     top of the two-party traffic, so its comm bits are (2|V_S| +
     2|V_R|) k rather than the §6.1 two-party figure. *)
  let op = "intersection_size_3p" in
  Protocol.record_run ~op ~ops:r_ops (`Receiver (List.length z_s, total_bytes));
  Protocol.record_run ~op ~ops:s_ops (`Sender (List.length z_r));
  { size; total_bytes; ops }
