(* Committed-run snapshot: what the incremental driver diffs the
   current input sets against. See snapshot.mli for the format. *)

let kind = "snapshot"

type entry = {
  op : string;
  key_fp : string;
  s_elements : string list;
  r_elements : string list;
}

type t = { run_id : int; entries : entry list }

let write_list w xs =
  Buf.write_varint w (List.length xs);
  List.iter (Buf.write_bytes w) xs

let encode t =
  let w = Buf.writer () in
  Buf.write_varint w t.run_id;
  Buf.write_varint w (List.length t.entries);
  List.iter
    (fun e ->
      Buf.write_bytes w e.op;
      Buf.write_bytes w e.key_fp;
      write_list w e.s_elements;
      write_list w e.r_elements)
    t.entries;
  Buf.contents w

(* Bound every claimed count by the bytes actually present before
   looping: each framed item costs at least one byte. *)
let decode data =
  let budget = String.length data in
  let bounded n =
    if n > budget then raise (Buf.Parse_error "snapshot: count exceeds input size") else n
  in
  match
    let r = Buf.reader data in
    let read_list () = List.init (bounded (Buf.read_varint r)) (fun _ -> Buf.read_bytes r) in
    let run_id = Buf.read_varint r in
    let entries =
      List.init
        (bounded (Buf.read_varint r))
        (fun _ ->
          let op = Buf.read_bytes r in
          let key_fp = Buf.read_bytes r in
          let s_elements = read_list () in
          let r_elements = read_list () in
          { op; key_fp; s_elements; r_elements })
    in
    Buf.expect_end r;
    { run_id; entries }
  with
  | t -> Ok t
  | exception Buf.Parse_error msg -> Error msg

let save ~path t = Record_log.write ~kind path (Seq.return (encode t))

let load ~path =
  match Record_log.fold ~kind path ~init:[] (fun acc f -> f :: acc) with
  | Record_log.Read { acc = [ Body body ]; clean = true; _ } -> Result.to_option (decode body)
  | Read _ | Missing | Foreign -> None
