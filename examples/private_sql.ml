(* §2.2's problem statement, end to end: "given a database query Q
   spanning the tables in D_R and D_S, compute the answer to Q and
   return it to R without revealing any additional information."

   Two retailers hold private tables; every query below is ordinary SQL,
   parsed and mapped onto whichever of the paper's protocols answers it.

   Run with: dune exec examples/private_sql.exe *)

open Minidb

(* S: a wholesaler's private catalog. *)
let catalog =
  Csv.parse_string
    "sku:text,product:text,stock:int,price:int\n\
     A-100,anvil,12,8000\n\
     B-200,bolt,9000,2\n\
     C-300,crate,40,1500\n\
     D-400,drill,7,12000\n\
     E-500,engine,2,99000\n"

(* R: a retailer's private demand list. *)
let demand =
  Csv.parse_string
    "sku:text,channel:text,needed:int\n\
     B-200,web,500\n\
     C-300,store,10\n\
     D-400,web,2\n\
     Z-999,store,1\n"

let () =
  let group = Crypto.Group.named Crypto.Group.Test256 in
  let cfg = Psi.Protocol.config ~domain:"retail:sku" group in
  let run sql =
    Printf.printf "\nSQL> %s\n" sql;
    (match
       Psi.Sql_private.explain ~sql ~sender:("catalog", catalog) ~receiver:("demand", demand) ()
     with
    | Ok plan -> Printf.printf "  -> protocol: %s\n" plan
    | Error e -> Printf.printf "  -> %s\n" e);
    match
      Psi.Sql_private.run cfg ~sql ~sender:("catalog", catalog) ~receiver:("demand", demand) ()
    with
    | Ok o ->
        Table.rows o.Psi.Sql_private.table
        |> List.iter (fun row ->
               Printf.printf "  | %s\n"
                 (String.concat " | " (Array.to_list (Array.map Value.to_string row))));
        Printf.printf "  (%d bytes on the wire, %d commutative encryptions)\n"
          o.Psi.Sql_private.total_bytes o.Psi.Sql_private.ops.Psi.Protocol.encryptions
    | Error e -> Printf.printf "  REJECTED: %s\n" e
  in
  Printf.printf "catalog (S): %d SKUs | demand (R): %d SKUs\n"
    (Table.cardinality catalog) (Table.cardinality demand);

  (* Which SKUs can be sourced? (intersection) *)
  run "select demand.sku from demand, catalog where demand.sku = catalog.sku";

  (* How many? (equijoin size) *)
  run "select count(*) from demand, catalog where demand.sku = catalog.sku";

  (* Catalog details for just the needed SKUs. (equijoin) *)
  run
    "select catalog.sku, product, price from demand, catalog where demand.sku = catalog.sku";

  (* Total exposure if R bought one of each matching item, computed
     without revealing any individual price. (private SUM) *)
  run "select sum(price) from demand, catalog where demand.sku = catalog.sku";

  (* Availability per sales channel (private GROUP BY), restricted to
     items S actually has in stock -- a sender-local filter. *)
  run
    "select channel, product, count(*) from demand, catalog \
     where demand.sku = catalog.sku and stock > 5 group by channel, product";

  (* Unsupported shapes are refused with a reason, not silently wrong. *)
  run "select channel from demand, catalog where demand.sku = catalog.sku and price > needed"
