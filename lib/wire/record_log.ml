let magic = "PSIRLOG"
let version = 1
let checksum_bytes = 8

let header kind =
  let w = Buf.writer () in
  Buf.write_raw w magic;
  Buf.write_bytes w kind;
  Buf.write_u8 w version;
  Buf.contents w

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* FNV-1a-64 over [s.[off] .. s.[off + len - 1]], from the state [h]. A
   plain loop over a local ref keeps the state unboxed: no allocation
   per byte. Each step xors a byte in and multiplies by an odd prime (a
   bijection mod 2^64), so two bodies differing in one byte always hash
   apart. *)
let fnv64_from h s off len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let fnv64 s off len = fnv64_from fnv_basis s off len

(* One FNV-1a step on [s.[i]], unchecked: the caller keeps [i] in
   bounds. *)
let[@inline] step h s i =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code (String.unsafe_get s i)))) fnv_prime

(* The checksums of four bodies, written big-endian into [sums] in
   order. One chain waits on each multiply before the next byte; four
   independent chains in one loop keep four multiplies in flight. Each
   chain is FNV-1a-64 over its whole body, bit for bit: the loop runs
   over the shortest body ([i < common] is in bounds for all four),
   then each chain finishes its own tail. *)
let fnv64x4 a b c d sums =
  let common =
    Int.min (Int.min (String.length a) (String.length b))
      (Int.min (String.length c) (String.length d))
  in
  let ha = ref fnv_basis and hb = ref fnv_basis in
  let hc = ref fnv_basis and hd = ref fnv_basis in
  for i = 0 to common - 1 do
    ha := step !ha a i;
    hb := step !hb b i;
    hc := step !hc c i;
    hd := step !hd d i
  done;
  let finish k h s =
    Bytes.set_int64_be sums (k * checksum_bytes)
      (fnv64_from h s common (String.length s - common))
  in
  finish 0 !ha a;
  finish 1 !hb b;
  finish 2 !hc c;
  finish 3 !hd d

type frame = Body of string | Corrupt
type 'a read = Missing | Foreign | Read of { acc : 'a; valid : int; clean : bool }

exception Damaged of string

(* The LEB128 length at the channel's position (as [Buf.write_varint]
   writes it); [None] when the file ends inside it or it takes more than
   8 bytes. Eight 7-bit groups stay below 2^56, so the length is never
   negative: a ninth group would reach bit 62, OCaml's sign bit. *)
let input_varint ic =
  let rec go shift acc =
    if shift > 49 then None
    else
      match In_channel.input_byte ic with
      | None -> None
      | Some b ->
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then Some acc else go (shift + 7) acc
  in
  go 0 0

(* The next frame's body at the channel's position, its stored checksum
   read into [sums] at slot [k], or [None] when no frame fits in the
   [size - pos] bytes left (or the file shrank under the read). The
   claimed length is checked against those bytes before the body is
   allocated. *)
let input_frame ic ~size sums k =
  match input_varint ic with
  | Some len when len <= size - pos_in ic - checksum_bytes -> (
      match
        let body = really_input_string ic len in
        really_input ic sums (k * checksum_bytes) checksum_bytes;
        body
      with
      | exception (End_of_file | Sys_error _) -> None
      | body -> Some body)
  | Some _ | None -> None
  | exception Sys_error _ -> None

(* Frames read and verified together ([fnv64x4]'s chains). *)
let batch = 4

(* The frames are read up to [batch] at a time, their checksums computed
   together, then folded one by one in file order: [f] sees exactly
   the frames, the [Corrupt] marks and the tail a frame-at-a-time read
   would, and [valid] and [clean] come out the same. *)
let scan ic ~size ~init f =
  let stored = Bytes.create (batch * checksum_bytes) in
  let computed = Bytes.create (batch * checksum_bytes) in
  let bodies = Array.make batch "" and ends = Array.make batch 0 in
  (* Up to [batch] frames from the channel: how many, and whether the
     read stopped at an unframeable tail. *)
  let rec fill k =
    if k = batch || pos_in ic >= size then (k, false)
    else
      match input_frame ic ~size stored k with
      | None -> (k, true)
      | Some body ->
          bodies.(k) <- body;
          ends.(k) <- pos_in ic;
          fill (k + 1)
  in
  let rec emit n k acc valid clean =
    if k = n then (acc, valid, clean)
    else
      let at = k * checksum_bytes in
      let body = bodies.(k) in
      bodies.(k) <- "";
      if Int64.equal (Bytes.get_int64_be stored at) (Bytes.get_int64_be computed at) then
        emit n (k + 1) (f acc (Body body)) (if clean then ends.(k) else valid) clean
      else emit n (k + 1) (f acc Corrupt) valid false
  in
  let rec go acc valid clean =
    if pos_in ic >= size then Read { acc; valid; clean }
    else
      let n, tail = fill 0 in
      if n > 0 then begin
        (* Short batches repeat their last body in the spare chains. *)
        let body k = bodies.(Int.min k (n - 1)) in
        fnv64x4 (body 0) (body 1) (body 2) (body 3) computed
      end;
      let acc, valid, clean = emit n 0 acc valid clean in
      if tail then Read { acc = f acc Corrupt; valid; clean = false } else go acc valid clean
  in
  let start = pos_in ic in
  go init start true

let fold ~kind path ~init f =
  match open_in_bin path with
  | exception Sys_error _ -> Missing
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let size = in_channel_length ic in
      Obs.Span.with_ "store/read" ~attrs:[ ("kind", kind); ("bytes", string_of_int size) ]
      @@ fun () ->
      let hdr = header kind in
      match really_input_string ic (String.length hdr) with
      | exception Sys_error _ -> Missing
      | exception End_of_file -> Foreign
      | prefix -> if String.equal prefix hdr then scan ic ~size ~init f else Foreign)

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
  let span = Obs.Span.enter "store/write" ~attrs:[ ("kind", kind) ] in
  let bytes = ref 0 in
  Fun.protect ~finally:(fun () ->
      Obs.Span.exit ~attrs:[ ("bytes", string_of_int !bytes) ] span)
  @@ fun () ->
  mkdirs (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (header kind);
      Seq.iter (output_frame oc) bodies;
      bytes := pos_out oc);
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
