type pair_result = {
  r_doc : string;
  s_doc : string;
  overlap : int;
  r_size : int;
  s_size : int;
  similarity : float;
}

type report = {
  matches : pair_result list;
  all_pairs : pair_result list;
  total_bytes : int;
  ops : Protocol.ops;
}

let similarity_default ~overlap ~r_size ~s_size =
  float_of_int overlap /. float_of_int (r_size + s_size)

let run cfg ?(seed = "doc-sharing") ?(similarity = similarity_default) ~docs_r ~docs_s
    ~threshold () =
  let pairs =
    List.concat_map
      (fun (dr : Workload.document) -> List.map (fun ds -> (dr, ds)) docs_s)
      docs_r
  in
  let report =
    Session.run cfg ~seed
      (List.map
         (fun ((dr : Workload.document), (ds : Workload.document)) ->
           Session.Intersect_size { s_values = ds.words; r_values = dr.words })
         pairs)
      ()
  in
  let all_pairs =
    List.map2
      (fun ((dr : Workload.document), (ds : Workload.document)) -> function
        | Session.Size overlap ->
            let r_size = List.length (Protocol.dedup dr.words) in
            let s_size = List.length (Protocol.dedup ds.words) in
            {
              r_doc = dr.doc_id;
              s_doc = ds.doc_id;
              overlap;
              r_size;
              s_size;
              similarity = similarity ~overlap ~r_size ~s_size;
            }
        | Session.Values _ | Session.Matches _ ->
            failwith "doc_sharing: intersection size returned another shape")
      pairs report.Session.results
  in
  {
    matches = List.filter (fun p -> p.similarity > threshold) all_pairs;
    all_pairs;
    total_bytes = report.Session.total_bytes;
    ops = report.Session.ops;
  }

let plaintext_matches ?(similarity = similarity_default) ~docs_r ~docs_s ~threshold () =
  List.concat_map
    (fun (dr : Workload.document) ->
      List.filter_map
        (fun (ds : Workload.document) ->
          let wr = Protocol.dedup dr.Workload.words in
          let ws = Protocol.dedup ds.Workload.words in
          let inter = List.filter (fun w -> List.mem w ws) wr in
          let s =
            similarity ~overlap:(List.length inter) ~r_size:(List.length wr)
              ~s_size:(List.length ws)
          in
          if s > threshold then Some (dr.Workload.doc_id, ds.Workload.doc_id) else None)
        docs_s)
    docs_r

let estimate (p : Cost_model.params) ~n_r ~n_s ~d_r ~d_s =
  let pairs = float_of_int (n_r * n_s) in
  let encryptions = pairs *. 2. *. float_of_int (d_r + d_s) in
  let comm_bits = pairs *. float_of_int ((d_r + (2 * d_s)) * p.Cost_model.k_bits) in
  {
    Cost_model.encryptions;
    comp_seconds =
      encryptions *. p.Cost_model.ce_seconds /. float_of_int p.Cost_model.processors;
    comm_bits;
    comm_seconds = comm_bits /. p.Cost_model.bandwidth_bits_per_s;
  }
