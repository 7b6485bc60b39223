(* §5.2 in action: what the equijoin size protocol leaks, and when.

   The protocol computes |T_S >< T_R| over multisets, but R additionally
   learns the duplicate-class intersection matrix |V_R(d) ∩ V_S(d')|.
   This example runs the protocol on two workloads — uniform duplicate
   counts (benign) and all-distinct duplicate counts (worst case) — and
   shows the leakage predicted by Psi.Leakage matching what the protocol
   actually reveals.

   Run with: dune exec examples/equijoin_size_leakage.exe *)

let show_case name ~s_values ~r_values =
  let group = Crypto.Group.named Crypto.Group.Test128 in
  let cfg = Psi.Protocol.config ~domain:"leakage-demo" group in
  Printf.printf "=== %s ===\n" name;
  Printf.printf "S multiset: %s\n" (String.concat " " s_values);
  Printf.printf "R multiset: %s\n" (String.concat " " r_values);
  (match
     (Psi.Session.run cfg [ Psi.Session.Equijoin_size { s_values; r_values } ] ())
       .Psi.Session.results
   with
  | [ Psi.Session.Size n ] ->
      Printf.printf "join size (R learns): %d  [ground truth %d]\n" n
        (Psi.Leakage.join_size ~r_values ~s_values)
  | _ -> failwith "equijoin_size_leakage: unexpected result");
  (* What else R reconstructs from its transcript: R's own party
     function reports it. *)
  let o =
    Psi.Protocol.launch (Crypto.Drbg.create ~seed:"leakage-demo")
      ~sender:(fun d ->
        Psi.Equijoin_size.sender cfg ~rng:(Crypto.Drbg.to_rng d) ~values:s_values)
      ~receiver:(fun d ->
        Psi.Equijoin_size.receiver cfg ~rng:(Crypto.Drbg.to_rng d) ~values:r_values)
  in
  let r = o.Wire.Runner.receiver_result in
  Printf.printf "R also sees S's duplicate distribution: %s\n"
    (String.concat ", "
       (List.map
          (fun (d, n) -> Printf.sprintf "%d value(s) x%d" n d)
          r.Psi.Equijoin_size.s_duplicate_distribution));
  Printf.printf "class-intersection matrix |V_R(d) ∩ V_S(d')| from R's view:\n";
  List.iter
    (fun ((d, d'), n) -> Printf.printf "  (d=%d, d'=%d) -> %d\n" d d' n)
    r.Psi.Equijoin_size.class_intersections;
  let identified = Psi.Leakage.identified_values ~r_values ~s_values in
  (match identified with
  | [] -> Printf.printf "=> R cannot identify any specific shared value.\n"
  | vs ->
      Printf.printf "=> R can INFER these values are in V_S: %s\n" (String.concat ", " vs));
  print_newline ()

let () =
  (* Benign: every value occurs once; only the size leaks. *)
  show_case "uniform duplicates (benign)"
    ~s_values:[ "anemia"; "bruxism"; "colitis"; "dermatitis" ]
    ~r_values:[ "bruxism"; "colitis"; "eczema" ];

  (* Worst case: distinct duplicate counts fingerprint each value. *)
  show_case "distinct duplicate counts (worst case)"
    ~s_values:[ "anemia"; "bruxism"; "bruxism"; "colitis"; "colitis"; "colitis" ]
    ~r_values:
      [ "anemia"; "bruxism"; "bruxism"; "colitis"; "colitis"; "colitis"; "eczema"; "eczema"; "eczema"; "eczema" ];

  (* Middle ground: some classes shared, some not. *)
  show_case "mixed duplicates"
    ~s_values:[ "a"; "a"; "b"; "c"; "c"; "d" ]
    ~r_values:[ "a"; "b"; "b"; "c"; "c"; "e" ];

  Printf.printf
    "Conclusion (§5.2): if all values have the same number of duplicates, R\n\
     learns only |V_R ∩ V_S|; if no two values share a duplicate count, R\n\
     learns V_R ∩ V_S exactly. Use the intersection-size protocol on\n\
     deduplicated sets when that leakage is unacceptable.\n"
