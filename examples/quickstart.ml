(* Quickstart: two parties privately intersect their customer lists.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Agree on a group (a safe prime; use Modp1536/Modp2048 for real
     deployments, Test256 for a fast demo) and a hash domain. *)
  let group = Crypto.Group.named Crypto.Group.Test256 in
  let cfg = Psi.Protocol.config ~domain:"customers:email" group in

  (* 2. Each party's private values (the join attribute). *)
  let s_customers =
    [ "ada@example.com"; "bob@example.com"; "cleo@example.com"; "dan@example.com" ]
  in
  let r_customers =
    [ "bob@example.com"; "cleo@example.com"; "eve@example.com" ]
  in

  (* 3. Run the intersection protocol as a one-operation session: a
     config handshake, then the protocol. The two parties execute in
     separate threads and exchange serialized messages over a metered
     channel. *)
  let report =
    Psi.Session.run cfg ~seed:"quickstart-demo"
      [ Psi.Session.Intersect { s_values = s_customers; r_values = r_customers } ]
      ()
  in

  (* 4. What each side learned. *)
  (match report with
  | { Psi.Session.results = [ Psi.Session.Values inter ]; peer_sizes = [ (v_s, v_r) ]; _ } ->
      Printf.printf "R learned the intersection (%d values):\n" (List.length inter);
      List.iter (Printf.printf "  - %s\n") inter;
      Printf.printf "R also learned |V_S| = %d (and nothing else)\n" v_s;
      Printf.printf "S learned |V_R| = %d (and nothing else)\n" v_r
  | _ -> failwith "quickstart: unexpected result");

  (* 5. The communication cost is measured, not estimated. *)
  Printf.printf "wire traffic: %d bytes (handshake included)\n" report.Psi.Session.total_bytes;

  (* 6. An intersection *size* query reveals even less. *)
  match
    (Psi.Session.run cfg ~seed:"quickstart-demo-2"
       [ Psi.Session.Intersect_size { s_values = s_customers; r_values = r_customers } ]
       ())
      .Psi.Session.results
  with
  | [ Psi.Session.Size size ] ->
      Printf.printf "\nIntersection size protocol: R learns only |V_S ∩ V_R| = %d\n" size
  | _ -> failwith "quickstart: unexpected result"
