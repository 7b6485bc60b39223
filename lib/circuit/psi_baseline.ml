module Message = Wire.Message
module Channel = Wire.Channel

type report = {
  intersection : int list;
  gates : int;
  table_bytes : int;
  total_bytes : int;
}

let tag_count = "yao/count"
let tag_view = "yao/view"
let tag_a_labels = "yao/a_labels"

let bits_of_values ~w values =
  Array.concat (List.map (fun v -> Circuit.int_to_bits ~w v) values)

let sender ~group ~w ~label_bytes ~seed ~rng ~values ep =
  (* Learn how many values the evaluator holds (the circuit shape is
     public in Yao's protocol). *)
  let n_b =
    match Channel.recv ep with
    | { Message.tag; payload = Message.Elements [ n ] } when tag = tag_count -> int_of_string n
    | _ -> Wire.Errors.protocol_errorf "yao: expected count"
  in
  let circuit = Circuit.brute_force_intersection ~w ~n_a:(List.length values) ~n_b in
  let garbled = Garble.garble ~label_bytes ~seed circuit in
  Channel.send ep
    (Message.make ~tag:tag_view (Message.Elements [ Garble.encode_view (Garble.view garbled) ]));
  (* The garbler's own input labels, selected by its private bits. *)
  let a_labels = Garble.input_labels_a garbled (bits_of_values ~w values) in
  (* psi-lint: allow SEC01 — one label per wire is publishable: labels are uniform DRBG strings and the bit-to-label mapping stays local (garbling security) *)
  Channel.send ep (Message.make ~tag:tag_a_labels (Message.Elements (Array.to_list a_labels)));
  (* Oblivious transfer of the evaluator's input labels. *)
  Ot.sender group ~rng ~pairs:(Garble.label_pairs_b garbled) ep;
  (Circuit.gate_count circuit, Garble.table_bytes garbled)

let receiver ~group ~w ~rng ~values ep =
  Channel.send ep
    (Message.make ~tag:tag_count (Message.Elements [ string_of_int (List.length values) ]));
  let view =
    match Channel.recv ep with
    | { Message.tag; payload = Message.Elements [ v ] } when tag = tag_view ->
        Garble.decode_view v
    | _ -> Wire.Errors.protocol_errorf "yao: expected view"
  in
  let a_labels =
    match Channel.recv ep with
    | { Message.tag; payload = Message.Elements ls } when tag = tag_a_labels ->
        Array.of_list ls
    | _ -> Wire.Errors.protocol_errorf "yao: expected garbler labels"
  in
  let choices = bits_of_values ~w values in
  let b_labels = Ot.receiver group ~rng ~choices ep in
  let bits = Garble.evaluate view ~a_labels ~b_labels in
  List.sort Int.compare
    (List.filteri (fun i _ -> List.nth bits i) values)

let run ~group ?(w = 16) ?(label_bytes = 8) ?(seed = "yao-psi") ~sender_values
    ~receiver_values () =
  if sender_values = [] || receiver_values = [] then
    invalid_arg "Psi_baseline.run: empty input"
  else begin
    List.iter
      (fun v ->
        if v < 0 || (w < 63 && v lsr w <> 0) then
          invalid_arg "Psi_baseline.run: value out of w-bit range")
      (sender_values @ receiver_values);
    let drbg = Crypto.Drbg.create ~seed in
    let s_rng = Crypto.Drbg.to_rng (Crypto.Drbg.split drbg ~label:"sender") in
    let r_rng = Crypto.Drbg.to_rng (Crypto.Drbg.split drbg ~label:"receiver") in
    let garble_seed = Crypto.Drbg.generate (Crypto.Drbg.split drbg ~label:"garble") 32 in
    let outcome =
      (* psi-lint: allow SEC01 — the party closures receive the protocol DRBG by design; every send inside is individually justified (OT pads, garbled view) *)
      Wire.Runner.run
        ~sender:(fun ep ->
          sender ~group ~w ~label_bytes ~seed:garble_seed ~rng:s_rng ~values:sender_values ep)
        ~receiver:(fun ep -> receiver ~group ~w ~rng:r_rng ~values:receiver_values ep)
    in
    let gates, table_bytes = outcome.Wire.Runner.sender_result in
    {
      intersection = outcome.Wire.Runner.receiver_result;
      gates;
      table_bytes;
      total_bytes = outcome.Wire.Runner.total_bytes;
    }
  end
