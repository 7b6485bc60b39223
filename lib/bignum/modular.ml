(* The limb width is Nat's; the kernels below need it as a literal.
   Dune's dev profile compiles with -opaque, so a width read from Nat
   would cost a memory load and a variable shift in every inner step
   (~20% slower at 52 limbs). This copy is checked against Nat's when
   the module initializes. *)
let base_bits = 30
let base_mask = (1 lsl base_bits) - 1
let () = assert (base_bits = Nat.Internal.base_bits)

let reduce a m = if Nat.compare a m < 0 then a else Nat.rem a m

let add a b m =
  let s = Nat.add a b in
  if Nat.compare s m >= 0 then Nat.sub s m else s

let sub a b m = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b
let mul a b m = Nat.rem (Nat.mul a b) m

let pow_binary b e m =
  if Nat.is_zero m then raise Division_by_zero
  else begin
    let b = reduce b m in
    let acc = ref (reduce Nat.one m) in
    for i = Nat.num_bits e - 1 downto 0 do
      acc := mul !acc !acc m;
      if Nat.test_bit e i then acc := mul !acc b m
    done;
    !acc
  end

let inv a m =
  let g, x, _ = Integer.egcd (Integer.of_nat a) (Integer.of_nat m) in
  if Integer.equal g Integer.one then
    Some (Integer.to_nat (Integer.erem x (Integer.of_nat m)))
  else None

let inv_exn a m =
  match inv a m with
  | Some r -> r
  | None -> invalid_arg "Modular.inv_exn: not invertible"

module Mont = struct
  (* ================================================================== *)
  (* One kernel family, at Nat's own limb width (30 bits).               *)
  (*                                                                     *)
  (* - Multiply-and-reduce runs as one fused CIOS pass:                  *)
  (*   v = t[j] + a_i*b[j] + m_i*ml[j] + c stays under 2^62, so the      *)
  (*   whole inner step is native-int arithmetic.                        *)
  (* - Reduction is lazy: every Montgomery product keeps its result in   *)
  (*   [0, 2m) instead of [0, m). Feeding such values back in is sound   *)
  (*   whenever 4m < 2^(30n), which is how [create] picks the limb count *)
  (*   n, and drops the compare-and-subtract pass from every multiply.   *)
  (*   One final subtract at the end of an exponentiation restores       *)
  (*   [0, m).                                                           *)
  (* - Operands enter and leave through preallocated arena buffers, into *)
  (*   which Nat's limbs are blitted directly.                           *)
  (* ================================================================== *)

  (* Fused CIOS at any limb count: dst <- a*b*2^(-30n) mod m, lazily
     reduced (see the block comment above). [t] is scratch of length
     n+1. [dst] may alias [a] or [b]: the result is staged in [t]. *)
  let mont_mul_loop ~n ~(ml : int array) ~m' (t : int array)
      (a : int array) (b : int array) (dst : int array) =
    Array.fill t 0 (n + 1) 0;
    for i = 0 to n - 1 do
      let ai = Array.unsafe_get a i in
      let u = Array.unsafe_get t 0 + (ai * Array.unsafe_get b 0) in
      let mi = u * m' land base_mask in
      let c = ref ((u + (mi * Array.unsafe_get ml 0)) lsr base_bits) in
      for j = 1 to n - 1 do
        let v =
          Array.unsafe_get t j + (ai * Array.unsafe_get b j)
          + (mi * Array.unsafe_get ml j) + !c
        in
        Array.unsafe_set t (j - 1) (v land base_mask);
        c := v lsr base_bits
      done;
      let v = Array.unsafe_get t n + !c in
      Array.unsafe_set t (n - 1) (v land base_mask);
      Array.unsafe_set t n (v lsr base_bits)
    done;
    Array.blit t 0 dst 0 n

  (* Mechanically unrolled from [mont_mul_loop] at [n = 9] (239- to
     268-bit moduli, so every 256-bit group): straight-line CIOS with
     the running value in 9 let-bound locals, so the whole reduction
     lives in registers and the only memory traffic is the operand
     loads and the final 9 stores. The carry-bound argument is the same
     as the loop form's: every intermediate fits 62 bits. [dst] may
     alias [a] or [b] — both operands are fully read before the first
     store. *)
  let mont_mul_w9 ~(ml : int array) ~m' (a : int array) (b : int array)
      (dst : int array) =
    let b0 = Array.unsafe_get b 0 in
    let b1 = Array.unsafe_get b 1 in
    let b2 = Array.unsafe_get b 2 in
    let b3 = Array.unsafe_get b 3 in
    let b4 = Array.unsafe_get b 4 in
    let b5 = Array.unsafe_get b 5 in
    let b6 = Array.unsafe_get b 6 in
    let b7 = Array.unsafe_get b 7 in
    let b8 = Array.unsafe_get b 8 in
    let q0 = Array.unsafe_get ml 0 in
    let q1 = Array.unsafe_get ml 1 in
    let q2 = Array.unsafe_get ml 2 in
    let q3 = Array.unsafe_get ml 3 in
    let q4 = Array.unsafe_get ml 4 in
    let q5 = Array.unsafe_get ml 5 in
    let q6 = Array.unsafe_get ml 6 in
    let q7 = Array.unsafe_get ml 7 in
    let q8 = Array.unsafe_get ml 8 in
    let t0 = 0 in
    let t1 = 0 in
    let t2 = 0 in
    let t3 = 0 in
    let t4 = 0 in
    let t5 = 0 in
    let t6 = 0 in
    let t7 = 0 in
    let t8 = 0 in
    let ai = Array.unsafe_get a 0 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 1 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 2 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 3 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 4 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 5 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 6 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 7 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    let ai = Array.unsafe_get a 8 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let v = t3 + (ai * b3) + (mi * q3) + c in
    let t2 = v land base_mask in
    let c = v lsr base_bits in
    let v = t4 + (ai * b4) + (mi * q4) + c in
    let t3 = v land base_mask in
    let c = v lsr base_bits in
    let v = t5 + (ai * b5) + (mi * q5) + c in
    let t4 = v land base_mask in
    let c = v lsr base_bits in
    let v = t6 + (ai * b6) + (mi * q6) + c in
    let t5 = v land base_mask in
    let c = v lsr base_bits in
    let v = t7 + (ai * b7) + (mi * q7) + c in
    let t6 = v land base_mask in
    let c = v lsr base_bits in
    let v = t8 + (ai * b8) + (mi * q8) + c in
    let t7 = v land base_mask in
    let c = v lsr base_bits in
    let t8 = c in
    Array.unsafe_set dst 0 t0;
    Array.unsafe_set dst 1 t1;
    Array.unsafe_set dst 2 t2;
    Array.unsafe_set dst 3 t3;
    Array.unsafe_set dst 4 t4;
    Array.unsafe_set dst 5 t5;
    Array.unsafe_set dst 6 t6;
    Array.unsafe_set dst 7 t7;
    Array.unsafe_set dst 8 t8

  (* Mechanically unrolled from [mont_mul_loop] at [n = 3] (59- to
     88-bit moduli, so Test64): the same straight-line CIOS as
     [mont_mul_w9], same carry bound and lazy output. [dst] may alias
     [a] or [b]. *)
  let mont_mul_w3 ~(ml : int array) ~m' (a : int array) (b : int array)
      (dst : int array) =
    let b0 = Array.unsafe_get b 0 in
    let b1 = Array.unsafe_get b 1 in
    let b2 = Array.unsafe_get b 2 in
    let q0 = Array.unsafe_get ml 0 in
    let q1 = Array.unsafe_get ml 1 in
    let q2 = Array.unsafe_get ml 2 in
    let t0 = 0 in
    let t1 = 0 in
    let t2 = 0 in
    let ai = Array.unsafe_get a 0 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let t2 = c in
    let ai = Array.unsafe_get a 1 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let t2 = c in
    let ai = Array.unsafe_get a 2 in
    let u = t0 + (ai * b0) in
    let mi = u * m' land base_mask in
    let c = (u + (mi * q0)) lsr base_bits in
    let v = t1 + (ai * b1) + (mi * q1) + c in
    let t0 = v land base_mask in
    let c = v lsr base_bits in
    let v = t2 + (ai * b2) + (mi * q2) + c in
    let t1 = v land base_mask in
    let c = v lsr base_bits in
    let t2 = c in
    Array.unsafe_set dst 0 t0;
    Array.unsafe_set dst 1 t1;
    Array.unsafe_set dst 2 t2

  type ctx = {
    m : Nat.t;
    n : int; (* limb count: the least with 4m < 2^(30n) *)
    ml : int array; (* modulus, n limbs *)
    m' : int; (* -m^{-1} mod 2^30 *)
    r2 : int array; (* 2^(60n) mod m *)
    one_m : int array; (* 2^(30n) mod m: 1 in Montgomery form *)
    win : int; (* window width of the pow paths *)
    lanes : int; (* pow_batch interleave width *)
  }

  let modulus c = c.m

  let kernel_name c =
    if c.n = 9 || c.n = 3 then Printf.sprintf "mont30x%d-unrolled" c.n
    else Printf.sprintf "mont30x%d" c.n

  let fmul c (t : int array) a b dst =
    if c.n = 9 then mont_mul_w9 ~ml:c.ml ~m':c.m' a b dst
    else if c.n = 3 then mont_mul_w3 ~ml:c.ml ~m':c.m' a b dst
    else mont_mul_loop ~n:c.n ~ml:c.ml ~m':c.m' t a b dst

  (* Final correction out of the lazy domain: the value is < 2m, so
     subtract m at most once (in place). *)
  let fcorrect c (r : int array) =
    let n = c.n and ml = c.ml in
    let ge =
      let rec cmp i =
        if i < 0 then true
        else begin
          let ri = Array.unsafe_get r i and mi = Array.unsafe_get ml i in
          if ri <> mi then ri > mi else cmp (i - 1)
        end
      in
      cmp (n - 1)
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get r i - Array.unsafe_get ml i - !borrow in
        if v < 0 then begin
          Array.unsafe_set r i (v + base_mask + 1);
          borrow := 1
        end
        else begin
          Array.unsafe_set r i v;
          borrow := 0
        end
      done
    end

  (* Copy [x]'s limbs into the n-limb [dst], zero-padding the top. *)
  let stage n (dst : int array) x =
    let xl = Nat.Internal.raw_limbs x in
    Array.fill dst 0 n 0;
    Array.blit xl 0 dst 0 (Array.length xl)

  (* Window width and lane count, as a function of the limb count. A
     w-bit window costs 2^w table products plus one product per w
     exponent bits, so 5-bit windows overtake 4-bit ones once exponents
     pass ~320 bits (11 limbs). Lanes trade the shared-scan amortization
     against table footprint in cache: four 16-row tables are a few KB
     at small widths, two 32-row tables at 52 limbs (1536 bits) already
     fill ~26 KB. At 18 limbs (512 bits) either plan measures the same. *)
  let plan n = if n < 11 then (4, 4) else (5, 2)

  let create m =
    if Nat.is_even m || Nat.compare m (Nat.of_int 3) < 0 then
      invalid_arg "Modular.Mont.create: modulus must be odd and >= 3"
    else begin
      let bits = Nat.num_bits m in
      (* Lazy reduction is sound only with two headroom bits. *)
      let n = (bits + 2 + base_bits - 1) / base_bits in
      let padded x =
        let a = Array.make n 0 in
        stage n a x;
        a
      in
      let ml = padded m in
      (* Hensel lifting: invert m mod 2^30. *)
      let invm = ref 1 in
      for _ = 1 to 5 do
        invm := !invm * (2 - (ml.(0) * !invm)) land base_mask
      done;
      assert (ml.(0) * !invm land base_mask = 1);
      let pow2 k = Nat.rem (Nat.shift_left Nat.one k) m in
      let win, lanes = plan n in
      {
        m;
        n;
        ml;
        m' = (- !invm) land base_mask;
        r2 = padded (pow2 (2 * base_bits * n));
        one_m = padded (pow2 (base_bits * n));
        win;
        lanes;
      }
    end

  (* Per-call scratch. Montgomery contexts are shared read-only across
     pool workers, so arenas deliberately do NOT live in the context:
     each call site builds one sized to the call ([pow_batch] amortizes
     it over the whole batch) and owns it for the call's duration. No
     buffer aliases another; the window loop writes only into arena
     storage, so steady-state runs allocate nothing. *)
  type arena = {
    ac : ctx;
    at : int array; (* n+1 kernel scratch (loop kernel only) *)
    abase : int array array; (* per-lane base in Montgomery form *)
    aacc : int array array; (* per-lane accumulator *)
    atab : int array array array; (* per-lane 2^win-row window table, or none *)
    aone : int array; (* plain 1, for leaving Montgomery form *)
  }

  let new_arena c ~lanes ~table =
    let mk () = Array.make c.n 0 in
    let one = mk () in
    one.(0) <- 1;
    {
      ac = c;
      at = Array.make (c.n + 1) 0;
      abase = Array.init lanes (fun _ -> mk ());
      aacc = Array.init lanes (fun _ -> mk ());
      atab =
        (if table then
           Array.init lanes (fun _ -> Array.init (1 lsl c.win) (fun _ -> mk ()))
         else [||]);
      aone = one;
    }

  (* Stage [x] (< m) into lane [l]'s base and enter Montgomery form.
     Allocation-free. *)
  let enter ar ~lane x =
    let c = ar.ac in
    let b = ar.abase.(lane) in
    stage c.n b x;
    fmul c ar.at b c.r2 b

  (* [enter], then fill the lane's window table with x^0 .. x^(2^w - 1).
     Allocation-free. *)
  let load_base ar ~lane x =
    let c = ar.ac in
    enter ar ~lane x;
    let b = ar.abase.(lane) in
    let tab = ar.atab.(lane) in
    Array.blit c.one_m 0 tab.(0) 0 c.n;
    Array.blit b 0 tab.(1) 0 c.n;
    for i = 2 to (1 lsl c.win) - 1 do
      fmul c ar.at tab.(i - 1) b tab.(i)
    done

  (* The shared window scan: one pass over the exponent's digits drives
     all [lanes] accumulators — per digit, every lane squares [win]
     times, then every lane multiplies by its own table entry. This is
     the zero-allocation steady state the Gc test pins down. *)
  let run_windows ar ~lanes (digits : int array) =
    let c = ar.ac in
    for l = 0 to lanes - 1 do
      Array.blit c.one_m 0 ar.aacc.(l) 0 c.n
    done;
    for k = Array.length digits - 1 downto 0 do
      for _s = 1 to c.win do
        for l = 0 to lanes - 1 do
          let acc = Array.unsafe_get ar.aacc l in
          fmul c ar.at acc acc acc
        done
      done;
      let d = Array.unsafe_get digits k in
      if d <> 0 then
        for l = 0 to lanes - 1 do
          let acc = Array.unsafe_get ar.aacc l in
          fmul c ar.at acc (Array.unsafe_get ar.atab l).(d) acc
        done
    done

  (* Leave Montgomery form (multiply by plain [y]; [ar.aone] for an
     exponentiation) and the lazy domain; fresh Nat result. *)
  let leave ar (acc : int array) y =
    let c = ar.ac in
    fmul c ar.at acc y acc;
    fcorrect c acc;
    Nat.Internal.of_limbs acc

  let lane_result ar ~lane = leave ar ar.aacc.(lane) ar.aone

  (* One lane, no table: a enters Montgomery form in the lane's base,
     b is staged plain in its accumulator, and their product leaves
     Montgomery form again. *)
  let mul c a b =
    if Nat.compare a c.m >= 0 || Nat.compare b c.m >= 0 then
      invalid_arg "Modular.Mont.mul: operand out of range"
    else begin
      let ar = new_arena c ~lanes:1 ~table:false in
      enter ar ~lane:0 a;
      stage c.n ar.aacc.(0) b;
      leave ar ar.abase.(0) ar.aacc.(0)
    end

  let sqr c a = mul c a a

  (* The window decompositions of an exponent, precomputed once per key
     so a batch of exponentiations under the same exponent skips the
     bit scan. Both widths [plan] picks are carried. *)
  type exponent = { nib4 : int array; win5 : int array }

  let digits_of ~w e =
    let count = (Nat.num_bits e + w - 1) / w in
    Array.init count (fun k ->
        let d = ref 0 in
        for j = 0 to w - 1 do
          if Nat.test_bit e ((w * k) + j) then d := !d lor (1 lsl j)
        done;
        !d)

  let precompute_exp e = { nib4 = digits_of ~w:4 e; win5 = digits_of ~w:5 e }
  let exp_digits c (w : exponent) = if c.win = 5 then w.win5 else w.nib4

  let pow_exp c b w =
    if Nat.compare b c.m >= 0 then invalid_arg "Modular.Mont.pow: base out of range"
    else begin
      let ar = new_arena c ~lanes:1 ~table:true in
      load_base ar ~lane:0 b;
      run_windows ar ~lanes:1 (exp_digits c w);
      lane_result ar ~lane:0
    end

  let pow c b e = pow_exp c b (precompute_exp e)

  (* Simultaneous multi-exponentiation: all of [bs] raised to the one
     exponent, interleaving [lanes] bases through a single scan of the
     digit array. One arena serves the whole batch, so per-element cost
     is pure kernel work. Results are in input order and bit-for-bit
     equal to mapping [pow_exp]. *)
  let pow_batch c bs w =
    match bs with
    | [] -> []
    | _ ->
        let digits = exp_digits c w in
        let ar = new_arena c ~lanes:(Int.min c.lanes (List.length bs)) ~table:true in
        let rec go bs acc =
          match bs with
          | [] -> List.rev acc
          | _ ->
              let rec take k xs =
                match (k, xs) with
                | 0, _ | _, [] -> ([], xs)
                | k, x :: tl ->
                    if Nat.compare x c.m >= 0 then
                      invalid_arg "Modular.Mont.pow_batch: base out of range"
                    else begin
                      let block, rest = take (k - 1) tl in
                      (x :: block, rest)
                    end
              in
              let block, rest = take (Array.length ar.aacc) bs in
              List.iteri (fun l x -> load_base ar ~lane:l x) block;
              run_windows ar ~lanes:(List.length block) digits;
              let out = List.mapi (fun l _ -> lane_result ar ~lane:l) block in
              go rest (List.rev_append out acc)
        in
        go bs []

  (* Batched modular squaring (the hash-to-group hot step): one lane, no
     window table, three kernel multiplies per element and no
     allocation beyond the results. *)
  let sqr_batch c xs =
    let ar = new_arena c ~lanes:1 ~table:false in
    List.map
      (fun x ->
        if Nat.compare x c.m >= 0 then
          invalid_arg "Modular.Mont.sqr_batch: operand out of range"
        else begin
          enter ar ~lane:0 x;
          let b = ar.abase.(0) in
          fmul c ar.at b b b;
          leave ar b ar.aone
        end)
      xs

  (* Test hooks: the parity suite drives the kernels directly and the
     zero-allocation property pins [run_windows] down with a
     Gc.minor_words delta. Not for production use. *)
  module Internal = struct
    type nonrec arena = arena

    let arena c = new_arena c ~lanes:c.lanes ~table:true
    let lanes c = c.lanes
    let load_base = load_base

    let run_windows ar ~lanes (w : exponent) =
      run_windows ar ~lanes (exp_digits ar.ac w)

    let lane_result = lane_result
  end
end

let pow b e m =
  if Nat.is_zero m then raise Division_by_zero
  else if Nat.is_one m then Nat.zero
  else if Nat.is_even m then pow_binary b e m
  else Mont.pow (Mont.create m) (reduce b m) e
