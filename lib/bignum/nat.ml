(* Little-endian limbs in base 2^30. OCaml's native int holds 62 bits
   plus sign, and a limb product is below 2^60, so every intermediate
   stays under 2^62: schoolbook's limb * limb + limb + carry is below
   2^61, Algorithm D's two-limb numerator is below 2^60 and its trial
   products qhat * v (qhat < 2^31) below 2^61, and the Montgomery
   kernel's fused a_i * b_j + m_i * m_j + t_j + carry stays below 2^62.
   Invariant: no leading zero limb; the empty array is zero. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

(* ------------------------------------------------------------------ *)
(* Internal helpers                                                    *)
(* ------------------------------------------------------------------ *)

let normalize (w : int array) : t =
  let n = ref (Array.length w) in
  while !n > 0 && w.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length w then w else Array.sub w 0 !n

let check_limbs (w : t) =
  Array.for_all (fun l -> l >= 0 && l < base) w
  && (Array.length w = 0 || w.(Array.length w - 1) <> 0)

(* Number of significant bits in a single limb. *)
let limb_bits l =
  let rec go acc l = if l = 0 then acc else go (acc + 1) (l lsr 1) in
  go 0 l

(* ------------------------------------------------------------------ *)
(* Constants, predicates, comparison                                   *)
(* ------------------------------------------------------------------ *)

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]
let is_zero (a : t) = Array.length a = 0
let is_one (a : t) = Array.length a = 1 && a.(0) = 1
let is_even (a : t) = Array.length a = 0 || a.(0) land 1 = 0

(* Top-level rather than a local closure over [a] and [b], so a
   comparison allocates nothing. *)
let rec compare_from (a : t) (b : t) i =
  if i < 0 then 0
  (* psi-lint: allow CT01 — ordering must exit on the first differing limb *)
  else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
  else compare_from a b (i - 1)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  (* psi-lint: allow CT01 — limb counts are public: magnitude length leaks anyway *)
  if la <> lb then Stdlib.compare la lb else compare_from a b (la - 1)

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Conversions: int                                                    *)
(* ------------------------------------------------------------------ *)

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative"
  else if n = 0 then zero
  else begin
    let rec count acc n = if n = 0 then acc else count (acc + 1) (n lsr base_bits) in
    let len = count 0 n in
    let w = Array.make len 0 in
    let rec fill i n =
      if n <> 0 then begin
        w.(i) <- n land base_mask;
        fill (i + 1) (n lsr base_bits)
      end
    in
    fill 0 n;
    w
  end

let to_int (a : t) =
  (* max_int has 62 bits: at most 3 limbs (90 bits) can pretend to fit. *)
  let la = Array.length a in
  if la = 0 then Some 0
  else if (la - 1) * base_bits + limb_bits a.(la - 1) > 62 then None
  else begin
    let v = ref 0 in
    for i = la - 1 downto 0 do
      v := (!v lsl base_bits) lor a.(i)
    done;
    Some !v
  end

let to_int_exn a =
  match to_int a with
  | Some v -> v
  | None -> invalid_arg "Nat.to_int_exn: does not fit"

(* ------------------------------------------------------------------ *)
(* Bit access                                                          *)
(* ------------------------------------------------------------------ *)

let num_bits (a : t) =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + limb_bits a.(la - 1)

let test_bit (a : t) i =
  if i < 0 then invalid_arg "Nat.test_bit: negative index"
  else begin
    let li = i / base_bits and off = i mod base_bits in
    li < Array.length a && (a.(li) lsr off) land 1 = 1
  end

let shift_left (a : t) s =
  if s < 0 then invalid_arg "Nat.shift_left: negative shift"
  else if is_zero a || s = 0 then a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    let w = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 w limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        w.(i + limb_shift) <- v land base_mask;
        carry := v lsr base_bits
      done;
      w.(la + limb_shift) <- !carry
    end;
    normalize w
  end

let shift_right (a : t) s =
  if s < 0 then invalid_arg "Nat.shift_right: negative shift"
  else if is_zero a || s = 0 then a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lw = la - limb_shift in
      let w = Array.make lw 0 in
      if bit_shift = 0 then Array.blit a limb_shift w 0 lw
      else
        for i = 0 to lw - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < la then
              (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land base_mask
            else 0
          in
          w.(i) <- lo lor hi
        done;
      normalize w
    end
  end

(* ------------------------------------------------------------------ *)
(* Addition / subtraction                                              *)
(* ------------------------------------------------------------------ *)

let add (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let a, b, la, lb = if la >= lb then (a, b, la, lb) else (b, a, lb, la) in
  let w = Array.make (la + 1) 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let v = a.(i) + (if i < lb then b.(i) else 0) + !carry in
    w.(i) <- v land base_mask;
    carry := v lsr base_bits
  done;
  w.(la) <- !carry;
  normalize w

let succ a = add a one

let sub (a : t) (b : t) =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result"
  else begin
    let la = Array.length a and lb = Array.length b in
    let w = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let v = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if v < 0 then begin
        w.(i) <- v + base;
        borrow := 1
      end
      else begin
        w.(i) <- v;
        borrow := 0
      end
    done;
    assert (!borrow = 0);
    normalize w
  end

let pred a = sub a one

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)
(* ------------------------------------------------------------------ *)

let mul_schoolbook (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let w = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let v = w.(i + j) + (ai * b.(j)) + !carry in
          w.(i + j) <- v land base_mask;
          carry := v lsr base_bits
        done;
        (* Propagate the final carry; cannot run off the end because the
           product is < base^(la+lb). *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let v = w.(!k) + !carry in
          w.(!k) <- v land base_mask;
          carry := v lsr base_bits;
          incr k
        done
      end
    done;
    normalize w
  end

(* Shift left by whole limbs (cheap Karatsuba helper). *)
let shift_limbs (a : t) k =
  if is_zero a || k = 0 then a
  else begin
    let la = Array.length a in
    let w = Array.make (la + k) 0 in
    Array.blit a 0 w k la;
    w
  end

let low_limbs (a : t) k = normalize (Array.sub a 0 (Int.min k (Array.length a)))

let high_limbs (a : t) k =
  let la = Array.length a in
  if k >= la then zero else Array.sub a k (la - k)

(* Below ~384 limbs (~10k bits) the allocation overhead of splitting
   outweighs the saved limb products; measured crossover on this
   representation is near 12k bits. *)
let karatsuba_threshold = 384

let rec mul (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let m = (Int.max la lb + 1) / 2 in
    let a0 = low_limbs a m and a1 = high_limbs a m in
    let b0 = low_limbs b m and b1 = high_limbs b m in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add (shift_limbs z2 (2 * m)) (shift_limbs z1 m)) z0
  end

let sqr a = mul a a

let pow b e =
  if e < 0 then invalid_arg "Nat.pow: negative exponent"
  else begin
    let rec go acc b e =
      if e = 0 then acc
      else begin
        let acc = if e land 1 = 1 then mul acc b else acc in
        go acc (sqr b) (e lsr 1)
      end
    in
    go one b e
  end

(* ------------------------------------------------------------------ *)
(* Division                                                            *)
(* ------------------------------------------------------------------ *)

(* Short division by a single limb. *)
let divmod_small (a : t) d =
  assert (d > 0 && d < base);
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, of_int !r)

(* Observability hook for the rare add-back branch of Algorithm D (the
   branch fires with probability ~2/base per quotient digit, so tests
   construct inputs that provoke it and check this counter). *)
let add_back_count = ref 0

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D. *)
let divmod_knuth (a : t) (b : t) =
  let n = Array.length b in
  assert (n >= 2);
  (* Normalize so the divisor's top limb has its high bit set. *)
  let s = base_bits - limb_bits b.(n - 1) in
  let v =
    let v' = shift_left b s in
    assert (Array.length v' = n);
    v'
  in
  let u =
    let u' = shift_left a s in
    let lu = Array.length u' in
    (* Always provide the extra top limb u.(m+n). *)
    let w = Array.make (Int.max (lu + 1) (n + 1)) 0 in
    Array.blit u' 0 w 0 lu;
    w
  in
  let m = Array.length u - 1 - n in
  assert (m >= 0);
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (num / v.(n - 1)) in
    let rhat = ref (num mod v.(n - 1)) in
    let continue = ref true in
    while
      !continue
      && (!qhat >= base
         || !qhat * v.(n - 2) > (!rhat lsl base_bits) lor u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + v.(n - 1);
      if !rhat >= base then continue := false
    done;
    (* Multiply and subtract: u[j .. j+n] -= qhat * v. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land base_mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      incr add_back_count;
      u.(j + n) <- d + base;
      q.(j) <- !qhat - 1;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let v' = u.(i + j) + v.(i) + !c in
        u.(i + j) <- v' land base_mask;
        c := v' lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land base_mask
    end
    else begin
      u.(j + n) <- d;
      q.(j) <- !qhat
    end
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero
  else if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_small a b.(0)
  else divmod_knuth a b

let divmod_binary (a : t) (b : t) =
  if is_zero b then raise Division_by_zero
  else begin
    let q = ref zero and r = ref zero in
    for i = num_bits a - 1 downto 0 do
      r := shift_left !r 1;
      if test_bit a i then r := add !r one;
      q := shift_left !q 1;
      if compare !r b >= 0 then begin
        r := sub !r b;
        q := add !q one
      end
    done;
    (!q, !r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* ------------------------------------------------------------------ *)
(* Conversions: bytes, hex, decimal                                    *)
(* ------------------------------------------------------------------ *)

let of_bytes_be s =
  let nbytes = String.length s in
  if nbytes = 0 then zero
  else begin
    let nlimbs = ((8 * nbytes) + base_bits - 1) / base_bits in
    let w = Array.make nlimbs 0 in
    for k = 0 to nbytes - 1 do
      let byte = Char.code s.[nbytes - 1 - k] in
      let bitpos = 8 * k in
      let li = bitpos / base_bits and off = bitpos mod base_bits in
      w.(li) <- w.(li) lor ((byte lsl off) land base_mask);
      let hi = byte lsr (base_bits - off) in
      if hi <> 0 then w.(li + 1) <- w.(li + 1) lor hi
    done;
    normalize w
  end

let to_bytes_be ?width (a : t) =
  let nbytes = (num_bits a + 7) / 8 in
  let nbytes = Int.max nbytes 1 in
  let width =
    match width with
    | None -> nbytes
    | Some w ->
        if w < nbytes then invalid_arg "Nat.to_bytes_be: width too small" else w
  in
  let la = Array.length a in
  let byte_at k =
    let bitpos = 8 * k in
    let li = bitpos / base_bits and off = bitpos mod base_bits in
    if li >= la then 0
    else begin
      let v = a.(li) lsr off in
      let v =
        if li + 1 < la && off > base_bits - 8 then
          v lor ((a.(li + 1) lsl (base_bits - off)) land 0xff)
        else v
      in
      v land 0xff
    end
  in
  String.init width (fun i -> Char.chr (byte_at (width - 1 - i)))

let of_hex s =
  let acc = ref zero in
  let seen = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          seen := true;
          acc := add (shift_left !acc 4) (of_int (Char.code c - Char.code '0'))
      | 'a' .. 'f' ->
          seen := true;
          acc := add (shift_left !acc 4) (of_int (Char.code c - Char.code 'a' + 10))
      | 'A' .. 'F' ->
          seen := true;
          acc := add (shift_left !acc 4) (of_int (Char.code c - Char.code 'A' + 10))
      | '_' | ' ' | '\n' | '\t' -> ()
      | _ -> invalid_arg "Nat.of_hex: invalid character")
    s;
  if not !seen then invalid_arg "Nat.of_hex: empty" else !acc

let to_hex (a : t) =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let started = ref false in
    for i = (num_bits a + 3) / 4 - 1 downto 0 do
      let nib =
        ((if test_bit a ((4 * i) + 3) then 8 else 0)
        lor (if test_bit a ((4 * i) + 2) then 4 else 0)
        lor (if test_bit a ((4 * i) + 1) then 2 else 0)
        lor if test_bit a (4 * i) then 1 else 0)
      in
      if nib <> 0 || !started then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[nib]
      end
    done;
    Buffer.contents buf
  end

let chunk_pow10 = 10_000_000 (* 10^7 < base *)
let chunk_digits = 7

let of_decimal s =
  let n = String.length s in
  if n = 0 then invalid_arg "Nat.of_decimal: empty"
  else begin
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' -> ()
        | _ -> invalid_arg "Nat.of_decimal: invalid character")
      s;
    let acc = ref zero in
    let i = ref 0 in
    while !i < n do
      let len = Int.min chunk_digits (n - !i) in
      let chunk = int_of_string (String.sub s !i len) in
      let scale = of_int (int_of_float (10. ** float_of_int len)) in
      acc := add (mul !acc scale) (of_int chunk);
      i := !i + len
    done;
    !acc
  end

let to_decimal (a : t) =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod_small !cur chunk_pow10 in
      chunks := to_int_exn r :: !chunks;
      cur := q
    done;
    match !chunks with
    (* psi-lint: allow DBG01 — the loop above runs at least once for non-zero a *)
    | [] -> assert false
    | hd :: tl ->
        let buf = Buffer.create 32 in
        Buffer.add_string buf (string_of_int hd);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) tl;
        Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)

(* ------------------------------------------------------------------ *)
(* Jacobi symbol                                                       *)
(* ------------------------------------------------------------------ *)

(* Bernstein–Yang divsteps in their all-positive form (the variant
   libsecp256k1 uses for its Jacobi symbol): f stays odd, g is replaced
   by (g + w·f) / 2^z or swapped with f, so both stay nonnegative and
   every step keeps (g/f) up to a sign that depends only on f and g mod
   8. Each step is decided by the low bits alone, so a batch of
   [steps] = 60 steps runs on the bottom 63 bits of f and g in native
   ints, builds a 2×2 matrix, and one in-place pass over the limbs
   applies it: (f, g) ← ((u·f + v·g), (q·f + r·g)) / 2^60. Once both
   fit in 62 bits a native binary loop with exact comparisons finishes.
   Binary GCD with comparisons (Pornin, "Optimized Binary GCD for
   Modular Inversion", 2020) batches the same way but must approximate
   the top words too, and its approximate steps can leave intermediate
   values negative, which the symbol's sign cannot follow; divsteps
   need neither. The batched loop is not proven to converge in a fixed number of
   batches, so after [max_batches] it hands the rest to an exact
   binary loop on [t]s. *)

let steps = 60

(* Trailing zeros of the low byte (255 for a zero byte, never read). *)
let ctz8 = Bytes.init 256 (fun i ->
    let rec go k = if k = 8 || (i lsr k) land 1 = 1 then k else go (k + 1) in
    Char.chr (if i = 0 then 255 else go 0))

(* Trailing zeros of a nonzero int. *)
let rec ctz x = if x land 0xff <> 0 then Char.code (Bytes.unsafe_get ctz8 (x land 0xff)) else 8 + ctz (x lsr 8)

(* (a/n) * s for native a >= 0 and odd n > 0: strip twos, then subtract
   the smaller from the larger, swapping by reciprocity. *)
let rec jacobi_int a n s =
  if a = 0 then if n = 1 then s else 0
  else begin
    let z = ctz a in
    let a = a lsr z in
    let s = if z land 1 = 1 && (n land 7 = 3 || n land 7 = 5) then -s else s in
    if a < n then jacobi_int (n - a) a (if a land n land 2 <> 0 then -s else s)
    else jacobi_int (a - n) n s
  end

(* (a/n) * s for odd n, on [t]s: the same loop, exact and allocating. *)
let rec jacobi_exact (a : t) (n : t) s =
  if is_zero a then if is_one n then s else 0
  else begin
    let z = ref 0 in
    while not (test_bit a !z) do incr z done;
    let a = shift_right a !z and n3 = n.(0) land 7 in
    let s = if !z land 1 = 1 && (n3 = 3 || n3 = 5) then -s else s in
    if compare a n < 0 then jacobi_exact (sub n a) a (if a.(0) land n.(0) land 2 <> 0 then -s else s)
    else jacobi_exact (sub a n) n s
  end

(* Bottom 63 bits of a limb array of length >= 3, wrapped into an int. *)
let low63 (x : int array) = x.(0) lor (x.(1) lsl 30) lor ((x.(2) land 7) lsl 60)

(* [steps] divsteps on the low words f, g, leaving eta, the sign bit
   (bit 0 of [jac]) and the matrix u, v, q, r in [st.(0..5)].
   Invariants (mod 2^63): u·f0 + v·g0 = f·2^j and q·f0 + r·g0 = g·2^j
   after j steps, with u + v, q + r <= 2^j, so the entries stay below
   2^60. A tail call with every piece of state an argument keeps it all
   in registers. *)
let rec divsteps (st : int array) eta jac u v q r f g i =
  (* Bits >= i set: no more than i halvings in one go. *)
  let x = g lor (-1 lsl i) in
  let zeros = ctz x in
  let g = g lsr zeros and u = u lsl zeros and v = v lsl zeros in
  let eta = eta - zeros and i = i - zeros in
  (* Halving by an odd power of two flips the sign iff f = 3, 5 mod 8. *)
  let jac = jac lxor (zeros land ((f lsr 1) lxor (f lsr 2))) in
  if i = 0 then begin
    st.(0) <- eta;
    st.(1) <- jac;
    st.(2) <- u;
    st.(3) <- v;
    st.(4) <- q;
    st.(5) <- r
  end
  else if eta < 0 then begin
    (* Swap f and g (and their rows); reciprocity flips the sign iff
       f = g = 3 mod 4. Then add w·f to g, w = -g/f mod 2^min(limit, 6),
       from 1/f = f (2 - f^2) mod 64. *)
    let eta = -eta in
    let jac = jac lxor ((f land g) lsr 1) in
    let limit = if eta + 1 < i then eta + 1 else i in
    let mask = (-1 lsr (63 - limit)) land 63 in
    let w = g * f * ((g * g) - 2) land mask in
    divsteps st eta jac q r (u + (q * w)) (v + (r * w)) g (f + (g * w)) i
  end
  else begin
    (* Add w·f to g, w = -g/f mod 2^min(limit, 4). *)
    let limit = if eta + 1 < i then eta + 1 else i in
    let mask = (-1 lsr (63 - limit)) land 15 in
    let w = f + (((f + 1) land 4) lsl 1) in
    let w = -w * g land mask in
    divsteps st eta jac u v (q + (u * w)) (r + (v * w)) f (g + (f * w)) i
  end

(* (f, g) <- ((u f + v g) / 2^60, (q f + r g) / 2^60) in place over
   the low [len] limbs. Coefficients split at 30 bits: with u + v <=
   2^60, u0 f_j + v0 g_j < 2^61 and u1 f_j + v1 g_j <= 2^60, so a limb
   sum stays below 2^62. Limb j of the product lands at j - 2, and the
   quotient is no larger than max(f, g), so it fits in [len] limbs. *)
let apply_matrix (st : int array) (f : int array) (g : int array) len =
  let u = st.(2) and v = st.(3) and q = st.(4) and r = st.(5) in
  let u0 = u land base_mask and u1 = u lsr base_bits in
  let v0 = v land base_mask and v1 = v lsr base_bits in
  let q0 = q land base_mask and q1 = q lsr base_bits in
  let r0 = r land base_mask and r1 = r lsr base_bits in
  let f0 = f.(0) and g0 = g.(0) in
  let tf = (u0 * f0) + (v0 * g0) and tg = (q0 * f0) + (r0 * g0) in
  let f1 = f.(1) and g1 = g.(1) in
  let tf = (u0 * f1) + (v0 * g1) + (u1 * f0) + (v1 * g0) + (tf lsr base_bits) in
  let tg = (q0 * f1) + (r0 * g1) + (q1 * f0) + (r1 * g0) + (tg lsr base_bits) in
  let cf = ref (tf lsr base_bits) and cg = ref (tg lsr base_bits) in
  let fp = ref f1 and gp = ref g1 in
  for j = 2 to len - 1 do
    let fj = Array.unsafe_get f j and gj = Array.unsafe_get g j in
    let tf = (u0 * fj) + (v0 * gj) + (u1 * !fp) + (v1 * !gp) + !cf in
    let tg = (q0 * fj) + (r0 * gj) + (q1 * !fp) + (r1 * !gp) + !cg in
    fp := fj;
    gp := gj;
    cf := tf lsr base_bits;
    cg := tg lsr base_bits;
    Array.unsafe_set f (j - 2) (tf land base_mask);
    Array.unsafe_set g (j - 2) (tg land base_mask)
  done;
  let tf = (u1 * !fp) + (v1 * !gp) + !cf and tg = (q1 * !fp) + (r1 * !gp) + !cg in
  f.(len - 2) <- tf land base_mask;
  g.(len - 2) <- tg land base_mask;
  f.(len - 1) <- tf lsr base_bits;
  g.(len - 1) <- tg lsr base_bits

(* Both below 2^62: three limbs, the top one under 4. *)
let fits_int len (f : int array) (g : int array) = len <= 3 && f.(2) < 4 && g.(2) < 4

(* The Jacobi symbol (a/n) for odd n, with a given batch budget. *)
let jacobi_batched ~max_batches (a : t) (n : t) =
  if is_zero n || is_even n then invalid_arg "Nat.jacobi: n must be odd";
  let a = if compare a n >= 0 then snd (divmod a n) else a in
  let cap = Int.max 3 (Array.length n) in
  let f = Array.make cap 0 and g = Array.make cap 0 in
  Array.blit n 0 f 0 (Array.length n);
  Array.blit a 0 g 0 (Array.length a);
  (* eta = -delta, starting at delta = 1; the sign bit starts clear. *)
  let st = [| -1; 0; 0; 0; 0; 0 |] in
  let len = ref cap and batches = ref 0 in
  while (not (fits_int !len f g)) && !batches < max_batches do
    divsteps st st.(0) st.(1) 1 0 0 1 (low63 f) (low63 g) steps;
    apply_matrix st f g !len;
    incr batches;
    while !len > 3 && f.(!len - 1) = 0 && g.(!len - 1) = 0 do decr len done
  done;
  let s = if st.(1) land 1 = 1 then -1 else 1 in
  if fits_int !len f g then jacobi_int (low63 g) (low63 f) s
  else jacobi_exact (normalize (Array.sub g 0 !len)) (normalize (Array.sub f 0 !len)) s

(* A batch makes about 60 / 2.5 bits of progress; give it four times
   the expected count before the exact loop takes over. *)
let jacobi a n = jacobi_batched ~max_batches:(8 + (4 * num_bits n / 24)) a n

let () = assert (check_limbs zero && check_limbs one)

module Internal = struct
  let base_bits = base_bits
  let of_limbs w = normalize (Array.copy w)
  let of_owned_limbs w = normalize w
  let raw_limbs (a : t) : int array = a
  let add_back_count = add_back_count
  let jacobi_batched = jacobi_batched
end
