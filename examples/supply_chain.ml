(* End-to-end integration / outsourcing (§1's motivating trends):
   a manufacturer outsources fulfilment to a logistics partner. They
   need to reconcile inventory on common SKUs without opening their
   databases to each other:

   1. which SKUs do both stock?            -> private intersection
   2. warehouse records for those SKUs     -> private equijoin (typed)
   3. how big is the full record overlap?  -> private equijoin size

   Each question is a SQL query that Psi.Sql_private maps onto the
   paper's protocol for it.

   The manufacturer additionally runs every incoming query through the
   §2.3 audit policy, so a curious partner cannot drain its catalog
   through repeated probing.

   Run with: dune exec examples/supply_chain.exe *)

open Minidb

let manufacturer =
  Csv.parse_string
    "sku:text,product:text,unit_cost:float,reorder:int\n\
     SKU-1001,compressor,149.5,20\n\
     SKU-1002,condenser,89.0,35\n\
     SKU-1003,evaporator,120.25,10\n\
     SKU-1004,thermostat,19.9,100\n\
     SKU-1005,fan-blade,7.5,250\n"

let logistics =
  Csv.parse_string
    "sku:text,warehouse:text,on_hand:int\n\
     SKU-1002,FRA,340\n\
     SKU-1002,AMS,120\n\
     SKU-1004,FRA,90\n\
     SKU-1006,AMS,15\n"

let () =
  let group = Crypto.Group.named Crypto.Group.Test256 in
  let cfg = Psi.Protocol.config ~domain:"supply:sku" group in
  (* The manufacturer's release policy for partner queries. *)
  let audit = Psi.Audit.create Psi.Audit.default_policy in

  Printf.printf "manufacturer: %d SKUs; logistics partner: %d stock rows\n\n"
    (Table.cardinality manufacturer) (Table.cardinality logistics);

  (* Every query is SQL over the two tables; the manufacturer's audit
     policy vets each one before any protocol message is sent. *)
  let run ?(receiver = logistics) sql =
    Psi.Sql_private.run cfg ~audit ~peer:"logistics" ~sql
      ~sender:("manufacturer", manufacturer) ~receiver:("logistics", receiver) ()
  in
  let rows o = Table.rows o.Psi.Sql_private.table in
  let on_sku = "FROM logistics l, manufacturer m WHERE l.sku = m.sku" in

  (* 1. Common SKUs. *)
  (match run ("SELECT l.sku " ^ on_sku) with
  | Ok o ->
      Printf.printf "1. SKUs stocked by both (%d bytes of protocol traffic):\n"
        o.Psi.Sql_private.total_bytes;
      List.iter (fun row -> Printf.printf "   %s\n" (Value.to_string row.(0))) (rows o)
  | Error reason -> Printf.printf "1. DENIED by audit: %s\n" reason);

  (* 2. Reorder data for the common SKUs, typed. *)
  (match run ("SELECT l.sku, m.product, m.reorder " ^ on_sku) with
  | Ok o ->
      Printf.printf "\n2. Joined reorder data (only for matching SKUs):\n";
      List.iter
        (fun row ->
          Printf.printf "   %s -> %s, %s\n" (Value.to_string row.(0)) (Value.to_string row.(1))
            (Value.to_string row.(2)))
        (rows o)
  | Error reason -> Printf.printf "\n2. DENIED by audit: %s\n" reason);

  (* 3. Overall record overlap (a multiset join: the partner has several
     rows per SKU). *)
  (match run ("SELECT COUNT(*) " ^ on_sku) with
  | Ok o ->
      Printf.printf "\n3. |manufacturer >< logistics| on sku = %s rows\n"
        (Value.to_string (List.hd (rows o)).(0))
  | Error reason -> Printf.printf "\n3. DENIED by audit: %s\n" reason);

  (* 4. A curious partner mounts a differencing attack: re-issue the
     query with one SKU removed each time and subtract the answers to
     isolate individual SKUs. The §2.3 overlap defence shuts it down. *)
  Printf.printf "\n4. Differencing attack simulation (drop one SKU per probe):\n";
  let rec probe i rows =
    match rows with
    | [] | [ _ ] -> ()
    | _ :: rest when i > 3 -> ignore rest
    | _ :: rest ->
        let receiver = Table.create (Table.schema logistics) rest in
        (match run ~receiver ("SELECT l.sku " ^ on_sku) with
        | Ok _ -> Printf.printf "   probe %d: allowed\n" i
        | Error reason -> Printf.printf "   probe %d: DENIED (%s)\n" i reason);
        probe (i + 1) rest
  in
  probe 1 (Table.rows logistics);

  Printf.printf "\nAudit trail at the manufacturer:\n";
  List.iter
    (fun (e : Psi.Audit.entry) ->
      Printf.printf "   #%d peer=%s op=%s |input|=%d result=%s %s\n" e.Psi.Audit.seq
        e.Psi.Audit.peer e.Psi.Audit.operation e.Psi.Audit.input_size
        (match e.Psi.Audit.result_size with Some n -> string_of_int n | None -> "-")
        (match e.Psi.Audit.decision with
        | Psi.Audit.Allow -> "ALLOW"
        | Psi.Audit.Deny r -> "DENY: " ^ r))
    (Psi.Audit.log audit)
