(* Log-structured store: a Wire.Record_log of kind "minidb", one frame
   per mutation; format and read policy as in storage.mli. *)

module Buf = Wire.Buf
module Log = Wire.Record_log

let kind = "minidb"

type t = {
  file_path : string;
  mutable log : Log.appender option; (* None after close *)
  tables : (string, Table.t) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Body encoding                                                       *)
(* ------------------------------------------------------------------ *)

(* Record kinds. *)
let k_create = 1
let k_insert = 2
let k_drop = 3

let encode_schema w schema =
  let cols = Schema.columns schema in
  Buf.write_varint w (List.length cols);
  List.iter
    (fun (c : Schema.column) ->
      Buf.write_bytes w c.Schema.name;
      Buf.write_bytes w (Value.ty_to_string c.Schema.ty);
      Buf.write_u8 w (if c.Schema.nullable then 1 else 0))
    cols

let decode_schema r =
  let n = Buf.read_varint r in
  let rec go i acc =
    if i = n then Schema.make (List.rev acc)
    else begin
      let name = Buf.read_bytes r in
      let ty = Value.ty_of_string (Buf.read_bytes r) in
      let nullable = Buf.read_u8 r = 1 in
      go (i + 1) (Schema.col ~nullable name ty :: acc)
    end
  in
  go 0 []

let encode_rows w rows =
  Buf.write_varint w (List.length rows);
  List.iter
    (fun row ->
      Buf.write_varint w (Array.length row);
      Array.iter (fun v -> Buf.write_bytes w (Value.key v)) row)
    rows

let decode_rows r =
  let n = Buf.read_varint r in
  let rec go i acc =
    if i = n then List.rev acc
    else begin
      let arity = Buf.read_varint r in
      let row = Array.of_list (List.init arity (fun _ -> Value.of_key (Buf.read_bytes r))) in
      go (i + 1) (row :: acc)
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* State transitions (shared by replay and live mutation)              *)
(* ------------------------------------------------------------------ *)

let apply_create tables name schema =
  if name = "" then invalid_arg "Storage: empty table name"
  else if Hashtbl.mem tables name then
    invalid_arg ("Storage: table already exists: " ^ name)
  else Hashtbl.replace tables name (Table.empty schema)

let apply_insert tables name rows =
  match Hashtbl.find_opt tables name with
  | None -> raise Not_found
  | Some t -> Hashtbl.replace tables name (Table.append t rows)

let apply_drop tables name =
  if not (Hashtbl.mem tables name) then raise Not_found
  else Hashtbl.remove tables name

(* ------------------------------------------------------------------ *)
(* Log IO                                                              *)
(* ------------------------------------------------------------------ *)

let append_record t body =
  match t.log with
  | None -> invalid_arg "Storage: database is closed"
  | Some log -> Log.append log body

let body_of kind_tag name f =
  let w = Buf.writer () in
  Buf.write_u8 w kind_tag;
  Buf.write_bytes w name;
  f w;
  Buf.contents w

let body_of_create name schema = body_of k_create name (fun w -> encode_schema w schema)
let body_of_insert name rows = body_of k_insert name (fun w -> encode_rows w rows)
let body_of_drop name = body_of k_drop name ignore

let apply_body tables body =
  let r = Buf.reader body in
  let kind = Buf.read_u8 r in
  let name = Buf.read_bytes r in
  if kind = k_create then apply_create tables name (decode_schema r)
  else if kind = k_insert then apply_insert tables name (decode_rows r)
  else if kind = k_drop then apply_drop tables name
  else invalid_arg "Storage: unknown record kind"

(* Replay the valid prefix: good frames up to the first corrupt one or
   the torn tail. A good frame that does not decode was not written by
   this codec, so the file is refused rather than silently cut. *)
let replay tables ok = function
  | Log.Corrupt -> false
  | Log.Body _ when not ok -> false
  | Log.Body body -> (
      match apply_body tables body with
      | () -> true
      | exception Buf.Parse_error _ -> invalid_arg "Storage: undecodable record")

let open_db file_path =
  let tables = Hashtbl.create 8 in
  let valid =
    match Log.fold ~kind file_path ~init:true (replay tables) with
    | Log.Read { valid; _ } -> Some valid
    | Log.Missing when not (Sys.file_exists file_path) ->
        Log.write ~kind file_path Seq.empty;
        None
    | Log.Missing | Log.Foreign -> invalid_arg "Storage: not a minidb database file"
  in
  (* Truncate any torn tail, then append after the valid prefix. *)
  { file_path; log = Some (Log.open_append ?at:valid ~kind file_path); tables }

let close t =
  Option.iter Log.close t.log;
  t.log <- None

let path t = t.file_path

let create_table t name schema =
  apply_create t.tables name schema;
  append_record t (body_of_create name schema)

let insert t name rows =
  apply_insert t.tables name rows;
  append_record t (body_of_insert name rows)

let drop_table t name =
  apply_drop t.tables name;
  append_record t (body_of_drop name)

let table t name =
  match Hashtbl.find_opt t.tables name with Some tbl -> tbl | None -> raise Not_found

let tables t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort String.compare

let checkpoint t =
  let bodies =
    List.concat_map
      (fun name ->
        let tbl = Hashtbl.find t.tables name in
        body_of_create name (Table.schema tbl)
        :: (if Table.cardinality tbl > 0 then [ body_of_insert name (Table.rows tbl) ] else []))
      (tables t)
  in
  close t;
  Log.write ~kind t.file_path (List.to_seq bodies);
  t.log <- Some (Log.open_append ~kind t.file_path)
