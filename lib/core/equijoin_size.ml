module Commutative = Crypto.Commutative

type sender_report = {
  v_r_multiset_size : int;
  r_duplicate_distribution : (int * int) list;
  ops : Protocol.ops;
}

type receiver_report = {
  join_size : int;
  v_s_multiset_size : int;
  s_duplicate_distribution : (int * int) list;
  class_intersections : ((int * int) * int) list;
  ops : Protocol.ops;
}

let tag_y_r = "equijoin_size/Y_R"
let tag_y_s = "equijoin_size/Y_S"
let tag_z_r = "equijoin_size/Z_R"

(* Given a multiset of encoded strings, the distribution of duplicates:
   (d, how many distinct strings occur exactly d times), sorted by d. *)
let duplicate_distribution encoded =
  let m = Sset.Multi.of_list encoded in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let d = Sset.Multi.count m s in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    (Sset.Multi.distinct m);
  Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl []
  |> List.sort (fun (d1, _) (d2, _) -> Int.compare d1 d2)

(* Each distinct item's image, repeated by the item's multiplicity in
   [m]: one real exponentiation per distinct element (the honest op
   count). *)
let replicate m distinct images =
  List.concat (List.map2 (fun s c -> List.init (Sset.Multi.count m s) (fun _ -> c)) distinct images)

(* Steps 1-2 on a multiset: the own layer of each distinct value,
   repeated. It comes sorted, so the copies stay adjacent and in order. *)
let own_multiset cfg ops key values =
  let m = Sset.Multi.of_list values in
  let own = Protocol.own_layer cfg ops key (Sset.Multi.distinct m) in
  replicate m (List.map snd own) (List.map fst own)

let peer_multiset cfg ops key encoded =
  let m = Sset.Multi.of_list encoded in
  let distinct = Sset.Multi.distinct m in
  replicate m distinct (Protocol.peer_layer cfg ops key distinct)

let sender cfg ~rng ~values ep =
  Obs.Span.with_ "equijoin_size/sender" @@ fun () ->
  let ops = Protocol.new_ops () in
  let e_s = Commutative.gen_key cfg.Protocol.group ~rng in
  let y_s = own_multiset cfg ops e_s values in
  let y_r = Protocol.recv_elements cfg ep tag_y_r in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_s y_s;
  let z_r = peer_multiset cfg ops e_s y_r in
  Protocol.send_elements_stream cfg ep ~tag:tag_z_r
    (Obs.Span.with_ "reorder" (fun () -> Protocol.sort_encoded z_r));
  {
    v_r_multiset_size = List.length y_r;
    r_duplicate_distribution = duplicate_distribution y_r;
    ops;
  }

let receiver cfg ~rng ~values ep =
  Obs.Span.with_ "equijoin_size/receiver" @@ fun () ->
  let ops = Protocol.new_ops () in
  let e_r = Commutative.gen_key cfg.Protocol.group ~rng in
  Protocol.send_elements_stream cfg ep ~tag:tag_y_r (own_multiset cfg ops e_r values);
  let y_s = Protocol.recv_elements cfg ep tag_y_s in
  let z_s = Sset.Multi.of_list (peer_multiset cfg ops e_r y_s) in
  let z_r = Sset.Multi.of_list (Protocol.recv_elements cfg ep tag_z_r) in
  let join_size = Obs.Span.with_ "match" (fun () -> Sset.Multi.join_size z_s z_r) in
  (* §5.2 leakage, reconstructed from R's own view: bucket the distinct
     double encryptions by (d = multiplicity in Z_R, d' = in Z_S). *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun z ->
      let d = Sset.Multi.count z_r z in
      let d' = Sset.Multi.count z_s z in
      if d' > 0 then
        Hashtbl.replace tbl (d, d') (1 + Option.value ~default:0 (Hashtbl.find_opt tbl (d, d'))))
    (Sset.Multi.distinct z_r);
  let class_intersections =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
    |> List.sort (fun ((a, b), _) ((c, d), _) ->
           match Int.compare a c with 0 -> Int.compare b d | o -> o)
  in
  {
    join_size;
    v_s_multiset_size = Sset.Multi.total (Sset.Multi.of_list y_s);
    s_duplicate_distribution = duplicate_distribution y_s;
    class_intersections;
    ops;
  }
