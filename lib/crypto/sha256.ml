(* FIPS 180-4 SHA-256. 32-bit words are kept in native ints and masked
   after every operation that can carry past bit 31. *)

let digest_size = 32
let block_size = 64
let mask32 = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed *)
  w : int array; (* message schedule scratch *)
  mutable finalized : bool;
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let init () =
  {
    h = Array.copy iv;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
    finalized = false;
  }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0;
  ctx.finalized <- false

let ror x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    w.(t) <-
      (Char.code (Bytes.get block i) lsl 24)
      lor (Char.code (Bytes.get block (i + 1)) lsl 16)
      lor (Char.code (Bytes.get block (i + 2)) lsl 8)
      lor Char.code (Bytes.get block (i + 3))
  done;
  for t = 16 to 63 do
    let s0 = ror w.(t - 15) 7 lxor ror w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = ror w.(t - 2) 17 lxor ror w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = ror !e 6 lxor ror !e 11 lxor ror !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
    let s0 = ror !a 2 lxor ror !a 13 lxor ror !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let update ctx s =
  if ctx.finalized then invalid_arg "Sha256.update: finalized context"
  else begin
    let len = String.length s in
    ctx.total <- ctx.total + len;
    let pos = ref 0 in
    (* Top up a partial block first. *)
    if ctx.buf_len > 0 then begin
      let take = Int.min (block_size - ctx.buf_len) len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = block_size then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    (* Whole blocks straight from the input: [compress] only reads its
       block, so the string is passed without a copy. *)
    while len - !pos >= block_size do
      compress ctx (Bytes.unsafe_of_string s) !pos;
      pos := !pos + block_size
    done;
    (* Stash the tail. *)
    let rest = len - !pos in
    if rest > 0 then begin
      Bytes.blit_string s !pos ctx.buf ctx.buf_len rest;
      ctx.buf_len <- ctx.buf_len + rest
    end
  end

(* Pad in the context's own block buffer: 0x80, zeros, then the
   message length in bits as a 64-bit big-endian integer at bytes
   56..63, spilling into a second block when fewer than 9 bytes are
   free. *)
let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: finalized context"
  else begin
    ctx.finalized <- true;
    let buf = ctx.buf in
    Bytes.set buf ctx.buf_len '\x80';
    let used = ctx.buf_len + 1 in
    if used > block_size - 8 then begin
      Bytes.fill buf used (block_size - used) '\x00';
      compress ctx buf 0;
      Bytes.fill buf 0 (block_size - 8) '\x00'
    end
    else Bytes.fill buf used (block_size - 8 - used) '\x00';
    Bytes.set_int64_be buf (block_size - 8) (Int64.of_int (8 * ctx.total));
    compress ctx buf 0;
    ctx.buf_len <- 0;
    String.init digest_size (fun i ->
        Char.chr ((ctx.h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
  end

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hexdigest s =
  let d = digest s in
  let buf = Buffer.create (2 * digest_size) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
