(* Small primes for trial division and sieving. *)
let small_primes =
  let limit = 2000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let jacobi = Nat.jacobi

let miller_rabin_witness ctx ~d ~s a =
  (* true = a witnesses compositeness. *)
  let n = Modular.Mont.modulus ctx in
  let n1 = Nat.pred n in
  let x = Modular.Mont.pow ctx a d in
  if Nat.is_one x || Nat.equal x n1 then false
  else begin
    let rec squares i x =
      if i >= s - 1 then true
      else begin
        let x = Modular.Mont.sqr ctx x in
        if Nat.equal x n1 then false else squares (i + 1) x
      end
    in
    squares 0 x
  end

let is_probable_prime ~rng ?(rounds = 24) n =
  match Nat.to_int n with
  | Some v when v < 2 -> false
  | Some v when v <= small_primes.(Array.length small_primes - 1) ->
      Array.exists (fun p -> p = v) small_primes
  | _ ->
      if Nat.is_even n then false
      else if
        Array.exists
          (fun p ->
            let p' = Nat.of_int p in
            Nat.compare p' n < 0 && Nat.is_zero (Nat.rem n p'))
          small_primes
      then false
      else begin
        let ctx = Modular.Mont.create n in
        let n1 = Nat.pred n in
        (* n - 1 = d * 2^s with d odd *)
        let s = ref 0 and d = ref n1 in
        while Nat.is_even !d do
          d := Nat.shift_right !d 1;
          incr s
        done;
        let rec rounds_left r =
          if r = 0 then true
          else begin
            let a = Nat_rand.range ~rng Nat.two n1 in
            if miller_rabin_witness ctx ~d:!d ~s:!s a then false else rounds_left (r - 1)
          end
        in
        rounds_left rounds
      end

let is_safe_prime ~rng p =
  Nat.compare p (Nat.of_int 5) >= 0
  && (not (Nat.is_even p))
  && is_probable_prime ~rng p
  && is_probable_prime ~rng (Nat.shift_right (Nat.pred p) 1)

let gen_prime ~rng bits =
  if bits < 2 then invalid_arg "Prime.gen_prime: bits must be >= 2"
  else begin
    let rec try_candidate () =
      let c = Nat_rand.bits_exact ~rng bits in
      let c = if Nat.is_even c then Nat.succ c else c in
      if Nat.num_bits c = bits && is_probable_prime ~rng c then c else try_candidate ()
    in
    try_candidate ()
  end

let gen_safe_prime ~rng bits =
  if bits < 5 then invalid_arg "Prime.gen_safe_prime: bits must be >= 5"
  else if bits < 20 then begin
    (* Too small for the sieve (q itself may be a small prime): direct search. *)
    let rec try_candidate () =
      let q = Nat_rand.bits_exact ~rng (bits - 1) in
      let q = if Nat.is_even q then Nat.succ q else q in
      let p = Nat.succ (Nat.shift_left q 1) in
      if Nat.num_bits q = bits - 1 && is_probable_prime ~rng q && is_probable_prime ~rng p
      then p
      else try_candidate ()
    in
    try_candidate ()
  end
  else begin
    (* Search p = 2q+1 with both prime. Sieve candidates q by small primes
       to avoid the expensive Miller-Rabin on obvious composites: skip q if
       q or 2q+1 has a small factor. *)
    let rec attempt () =
      let q0 = Nat_rand.bits_exact ~rng (bits - 1) in
      let q0 = if Nat.is_even q0 then Nat.succ q0 else q0 in
      (* Residues of q0 modulo each small prime; scan q = q0 + 2i. *)
      let residues =
        Array.map (fun p -> (p, Nat.to_int_exn (Nat.rem q0 (Nat.of_int p)))) small_primes
      in
      let survives i =
        Array.for_all
          (fun (p, r) ->
            let qr = (r + (2 * i)) mod p in
            let pr = ((2 * qr) + 1) mod p in
            qr <> 0 && pr <> 0)
          residues
      in
      let max_scan = 4 * bits * bits in
      let rec scan i =
        if i >= max_scan then attempt ()
        else if not (survives i) then scan (i + 1)
        else begin
          let q = Nat.add q0 (Nat.of_int (2 * i)) in
          if Nat.num_bits q <> bits - 1 then attempt ()
          else begin
            let p = Nat.succ (Nat.shift_left q 1) in
            (* Cheap pre-check on p first (2^q test implied by MR), then q. *)
            if is_probable_prime ~rng ~rounds:4 p
               && is_probable_prime ~rng q
               && is_probable_prime ~rng p
            then p
            else scan (i + 1)
          end
        end
      in
      scan 0
    in
    attempt ()
  end
