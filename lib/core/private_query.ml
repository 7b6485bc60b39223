module Value = Minidb.Value
module Table = Minidb.Table
module Buf = Wire.Buf

type spec =
  | Intersect of { attr : string }
  | Intersect_size of { attr : string }
  | Equijoin of { attr : string; payload : string list }
  | Equijoin_size of { attr : string }

type rows = (Value.t * Value.t list list) list

type answer = Values of Value.t list | Size of int | Rows of rows

type outcome = {
  answer : answer;
  v_s : int;
  v_r : int;
  total_bytes : int;
  ops : Protocol.ops;
}

let operation_name = function
  | Intersect _ -> "intersect"
  | Intersect_size _ -> "intersect_size"
  | Equijoin _ -> "equijoin"
  | Equijoin_size _ -> "equijoin_size"

let attr_of = function
  | Intersect { attr }
  | Intersect_size { attr }
  | Equijoin { attr; _ }
  | Equijoin_size { attr } ->
      attr

(* Distinct non-null attribute values as protocol strings. *)
let values_of t attr = List.map Value.key (Table.distinct_values t attr)

(* Multiset variant (duplicates kept, nulls dropped). *)
let multiset_of t attr =
  List.filter_map
    (fun v -> if v = Value.Null then None else Some (Value.key v))
    (Table.column_values t attr)

(* ext(v) record payload: the projected columns, each as a typed key. *)
let encode_row t cols row =
  let w = Buf.writer () in
  Buf.write_varint w (List.length cols);
  List.iter (fun c -> Buf.write_bytes w (Value.key (Table.get t row c))) cols;
  Buf.contents w

let decode_row payload =
  let r = Buf.reader payload in
  let n = Buf.read_varint r in
  let rec go i acc =
    if i = n then List.rev acc else go (i + 1) (Value.of_key (Buf.read_bytes r) :: acc)
  in
  let vs = go 0 [] in
  Buf.expect_end r;
  vs

let plaintext spec ~sender ~receiver =
  let attr = attr_of spec in
  match spec with
  | Intersect _ -> Values (Minidb.Relop.intersect_values receiver sender ~on:(attr, attr))
  | Intersect_size _ ->
      Size (List.length (Minidb.Relop.intersect_values receiver sender ~on:(attr, attr)))
  | Equijoin_size _ -> Size (Minidb.Relop.equijoin_size receiver sender ~on:(attr, attr))
  | Equijoin { payload; _ } ->
      let matches = Minidb.Relop.intersect_values receiver sender ~on:(attr, attr) in
      Rows
        (List.map
           (fun v ->
             let recs =
               List.map
                 (fun row -> List.map (fun c -> Table.get sender row c) payload)
                 (Table.ext sender attr v)
             in
             (v, recs))
           matches)

let result_size_of = function
  | Values vs -> List.length vs
  | Size n -> n
  | Rows rs -> List.length rs

let execute cfg ~seed spec ~sender ~receiver =
  let attr = attr_of spec in
  let op =
    match spec with
    | Intersect _ ->
        Session.Intersect { s_values = values_of sender attr; r_values = values_of receiver attr }
    | Intersect_size _ ->
        Session.Intersect_size
          { s_values = values_of sender attr; r_values = values_of receiver attr }
    | Equijoin_size _ ->
        Session.Equijoin_size
          { s_values = multiset_of sender attr; r_values = multiset_of receiver attr }
    | Equijoin { payload; _ } ->
        let records =
          List.filter_map
            (fun row ->
              let v = Table.get sender row attr in
              if v = Value.Null then None
              else Some (Value.key v, encode_row sender payload row))
            (Table.rows sender)
        in
        Session.Equijoin { s_records = records; r_values = values_of receiver attr }
  in
  match Session.run cfg ~seed [ op ] () with
  | { Session.results = [ result ]; peer_sizes = [ (v_s, v_r) ]; total_bytes; ops } ->
      let answer =
        match result with
        | Session.Values vs -> Values (List.sort Value.compare (List.map Value.of_key vs))
        | Session.Size n -> Size n
        | Session.Matches ms ->
            Rows (List.map (fun (v, recs) -> (Value.of_key v, List.map decode_row recs)) ms)
      in
      { answer; v_s; v_r; total_bytes; ops }
  | _ -> failwith "private_query: one operation, one result"

let run cfg ?(seed = "private-query") ?audit ?(peer = "receiver") spec ~sender ~receiver
    () =
  let attr = attr_of spec in
  let gate () =
    match audit with
    | None -> Ok ()
    | Some a -> (
        match
          Audit.check_query a ~peer ~operation:(operation_name spec)
            ~input_values:(values_of receiver attr)
        with
        | Audit.Deny reason -> Error reason
        | Audit.Allow -> (
            (* Release gate: the data owner (or an agreed restriction
               mechanism, §2.3) evaluates the would-be answer against the
               result-size rules before participating. *)
            let size = result_size_of (plaintext spec ~sender ~receiver) in
            let own = List.length (values_of sender attr) in
            match Audit.check_result a ~peer ~result_size:size ~own_set_size:own with
            | Audit.Deny reason -> Error reason
            | Audit.Allow -> Ok ()))
  in
  match gate () with
  | Error reason -> Error reason
  | Ok () -> Ok (execute cfg ~seed spec ~sender ~receiver)
