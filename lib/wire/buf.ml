type writer = Buffer.t

let writer ?(size = 256) () = Buffer.create size
let contents = Buffer.contents
let length = Buffer.length

let write_u8 w n =
  if n < 0 || n > 0xff then invalid_arg "Buf.write_u8: out of range"
  else Buffer.add_char w (Char.chr n)

let write_u32 w n =
  if n < 0 || n > 0xffffffff then invalid_arg "Buf.write_u32: out of range"
  else
    for i = 3 downto 0 do
      Buffer.add_char w (Char.chr ((n lsr (8 * i)) land 0xff))
    done

let rec write_varint w n =
  if n < 0 then invalid_arg "Buf.write_varint: negative"
  else if n < 0x80 then Buffer.add_char w (Char.chr n)
  else begin
    Buffer.add_char w (Char.chr (0x80 lor (n land 0x7f)));
    write_varint w (n lsr 7)
  end

let write_bytes w s =
  write_varint w (String.length s);
  Buffer.add_string w s

let write_raw w s = Buffer.add_string w s

type reader = { s : string; mutable pos : int }

exception Parse_error of string

let reader s = { s; pos = 0 }
let fail msg = raise (Parse_error msg)

let need r n =
  if r.pos + n > String.length r.s then fail (Printf.sprintf "truncated: need %d bytes" n)

let read_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  need r 4;
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor Char.code r.s.[r.pos];
    r.pos <- r.pos + 1
  done;
  !v

let read_varint r =
  let rec go shift acc =
    if shift > 56 then fail "varint too long"
    else begin
      let b = read_u8 r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    end
  in
  go 0 0

let read_raw r n =
  if n < 0 then fail "negative length"
  else begin
    need r n;
    let v = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    v
  end

(* Default ceiling on a single length-prefixed field. A malicious peer
   can claim any length in the prefix; bounding it before [read_raw]
   keeps a malformed frame from turning into a huge allocation request
   and guarantees the failure is a typed [Parse_error]. 16 MiB is far
   above any legitimate protocol field (group elements are < 1 KiB). *)
let max_chunk_bytes = 16 * 1024 * 1024

let read_bytes ?(max = max_chunk_bytes) r =
  let n = read_varint r in
  if n > max then fail (Printf.sprintf "length %d exceeds bound %d" n max);
  read_raw r n
let at_end r = r.pos = String.length r.s
let expect_end r = if not (at_end r) then fail "trailing bytes"
