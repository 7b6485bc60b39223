let magic = "PSIRLOG"
let version = 1
let checksum_bytes = 8

let header kind =
  let w = Buf.writer () in
  Buf.write_raw w magic;
  Buf.write_bytes w kind;
  Buf.write_u8 w version;
  Buf.contents w

(* FNV-1a-64 over [s.[off] .. s.[off + len - 1]]. A plain loop over a
   local ref keeps the state unboxed: no allocation per byte. Each step
   xors a byte in and multiplies by an odd prime (a bijection mod 2^64),
   so two bodies differing in one byte always hash apart. *)
let fnv64 s off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

type frame = Body of string | Corrupt
type 'a read = Missing | Foreign | Read of { acc : 'a; valid : int; clean : bool }

exception Damaged of string

(* The LEB128 length at [pos] (as [Buf.write_varint] writes it) and the
   offset after it; [None] when it runs off the data or takes more than
   8 bytes. Eight 7-bit groups stay below 2^56, so the length is never
   negative: a ninth group would reach bit 62, OCaml's sign bit. *)
let varint_at data pos =
  let n = String.length data in
  let rec go p shift acc =
    if p >= n || shift > 49 then None
    else begin
      let b = Char.code data.[p] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, p + 1) else go (p + 1) (shift + 7) acc
    end
  in
  go pos 0 0

let scan data ~start ~init f =
  let n = String.length data in
  let rec go pos acc valid clean =
    if pos = n then Read { acc; valid; clean }
    else
      match varint_at data pos with
      | Some (len, body) when len >= 0 && len <= n - body - checksum_bytes ->
          let next = body + len + checksum_bytes in
          if Int64.equal (fnv64 data body len) (String.get_int64_be data (body + len)) then
            let acc = f acc (Body (String.sub data body len)) in
            go next acc (if clean then next else valid) clean
          else go next (f acc Corrupt) valid false
      | _ -> Read { acc = f acc Corrupt; valid; clean = false }
  in
  go start init start true

let fold ~kind path ~init f =
  match open_in_bin path with
  | exception Sys_error _ -> Missing
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let bytes = in_channel_length ic in
      Obs.Span.with_ "store/read" ~attrs:[ ("kind", kind); ("bytes", string_of_int bytes) ]
      @@ fun () ->
      match really_input_string ic bytes with
      | exception (Sys_error _ | End_of_file) -> Missing
      | data ->
          let hdr = header kind in
          if String.starts_with ~prefix:hdr data then
            scan data ~start:(String.length hdr) ~init f
          else Foreign

let is_log ~kind path =
  let hdr = header kind in
  let starts ic = In_channel.really_input_string ic (String.length hdr) in
  try Option.equal String.equal (In_channel.with_open_bin path starts) (Some hdr)
  with Sys_error _ -> false

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if not (String.equal parent dir) then mkdirs parent;
    (* A concurrent creator winning the race is fine; a real failure
       resurfaces when the file is opened. *)
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)
let frame_bytes body = varint_size (String.length body) + String.length body + checksum_bytes

(* Streamed straight to the channel: no per-frame copy of the body. The
   length is LEB128, byte for byte what [Buf.write_varint] writes. *)
let output_frame oc body =
  let rec varint n =
    if n < 0x80 then output_byte oc n
    else begin
      output_byte oc (0x80 lor (n land 0x7f));
      varint (n lsr 7)
    end
  in
  let len = String.length body in
  varint len;
  output_string oc body;
  let sum = Bytes.create checksum_bytes in
  Bytes.set_int64_be sum 0 (fnv64 body 0 len);
  output_bytes oc sum

let write ~kind path bodies =
  let hdr = header kind in
  let bytes = List.fold_left (fun n b -> n + frame_bytes b) (String.length hdr) bodies in
  Obs.Span.with_ "store/write" ~attrs:[ ("kind", kind); ("bytes", string_of_int bytes) ]
  @@ fun () ->
  mkdirs (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc hdr;
      List.iter (output_frame oc) bodies);
  Sys.rename tmp path

type appender = { kind : string; oc : out_channel }

let open_append ?at ~kind path =
  Option.iter (Unix.truncate path) at;
  { kind; oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path }

let append a body =
  Obs.Span.with_ "store/write"
    ~attrs:[ ("kind", a.kind); ("bytes", string_of_int (frame_bytes body)) ]
  @@ fun () ->
  output_frame a.oc body;
  flush a.oc

let close a = close_out a.oc
