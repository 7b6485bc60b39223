module Nat = Bignum.Nat
module Modular = Bignum.Modular
module Prime = Bignum.Prime
module Nat_rand = Bignum.Nat_rand

type public = { n : Nat.t; n_sq : Nat.t; ctx : Modular.Mont.ctx (* mod n^2 *) }
type secret = { pub : public; lambda : Nat.t; mu : Nat.t }

let make_public n =
  let n_sq = Nat.mul n n in
  { n; n_sq; ctx = Modular.Mont.create n_sq }

let keygen ~rng ~bits =
  if bits < 64 then invalid_arg "Paillier.keygen: bits >= 64"
  else begin
    let half = bits / 2 in
    let rec gen () =
      let p = Prime.gen_prime ~rng half in
      let q = Prime.gen_prime ~rng (bits - half) in
      if Nat.equal p q then gen ()
      else begin
        let n = Nat.mul p q in
        (* lambda = lcm(p-1, q-1) *)
        let p1 = Nat.pred p and q1 = Nat.pred q in
        let lambda = Nat.div (Nat.mul p1 q1) (Nat.gcd p1 q1) in
        (* With g = n+1: mu = lambda^-1 mod n (lambda coprime to n since
           p, q are odd primes not dividing lambda... gcd check anyway). *)
        match Modular.inv lambda n with
        | None -> gen ()
        | Some mu ->
            let pub = make_public n in
            (pub, { pub; lambda; mu })
      end
    in
    gen ()
  end

let public_of_secret s = s.pub
let modulus pub = pub.n

let encrypt pub ~rng m =
  if Nat.compare m pub.n >= 0 then invalid_arg "Paillier.encrypt: plaintext >= n"
  else begin
    let rec draw_r () =
      let r = Nat_rand.range ~rng Nat.one pub.n in
      if Nat.is_one (Nat.gcd r pub.n) then r else draw_r ()
    in
    let r = draw_r () in
    (* (1 + m*n) * r^n mod n^2 *)
    let gm = Nat.rem (Nat.succ (Nat.mul m pub.n)) pub.n_sq in
    Modular.Mont.mul pub.ctx gm (Modular.Mont.pow pub.ctx (Nat.rem r pub.n_sq) pub.n)
  end

let decrypt sec c =
  let pub = sec.pub in
  if Nat.compare c pub.n_sq >= 0 then invalid_arg "Paillier.decrypt: ciphertext >= n^2"
  else begin
    let x = Modular.Mont.pow pub.ctx c sec.lambda in
    (* L(x) = (x - 1) / n; x = 1 mod n by construction. *)
    let l = Nat.div (Nat.pred x) pub.n in
    Nat.rem (Nat.mul l sec.mu) pub.n
  end

let add pub c1 c2 = Modular.Mont.mul pub.ctx c1 c2

let add_plain pub c m =
  let m = Nat.rem m pub.n in
  Modular.Mont.mul pub.ctx c (Nat.rem (Nat.succ (Nat.mul m pub.n)) pub.n_sq)

let mul_plain pub c k = Modular.Mont.pow pub.ctx c k
let zero pub ~rng = encrypt pub ~rng Nat.zero

let encode_public pub = Nat.to_bytes_be pub.n

(* [keygen ~bits:64], the smallest key, multiplies two 32-bit primes,
   so every honest modulus has at least 63 bits. The ceiling bounds the
   work a peer's key can ask for ([make_public] squares it). *)
let min_modulus_bits = 63
let max_modulus_bits = 16384

let decode_public s =
  let n = Nat.of_bytes_be s in
  let bits = Nat.num_bits n in
  if Nat.is_even n then Error "Paillier modulus is even"
  else if bits < min_modulus_bits || bits > max_modulus_bits then
    Error
      (Printf.sprintf "Paillier modulus of %d bits, expected %d to %d" bits min_modulus_bits
         max_modulus_bits)
  else Ok (make_public n)

let ciphertext_bytes pub = (Nat.num_bits pub.n_sq + 7) / 8
let encode_ciphertext pub c = Nat.to_bytes_be ~width:(ciphertext_bytes pub) c

let decode_ciphertext pub s =
  if String.length s <> ciphertext_bytes pub then
    Error
      (Printf.sprintf "Paillier ciphertext of %d bytes, expected %d" (String.length s)
         (ciphertext_bytes pub))
  else begin
    let c = Nat.of_bytes_be s in
    if Nat.compare c pub.n_sq >= 0 then Error "Paillier ciphertext out of range [0, n^2)"
    else Ok c
  end
