type ('s, 'r) outcome = {
  sender_result : 's;
  receiver_result : 'r;
  sender_stats : Channel.stats;
  receiver_stats : Channel.stats;
  sender_view : Message.t list;
  receiver_view : Message.t list;
  total_bytes : int;
}

let run_on (s_ep, r_ep) ~sender ~receiver =
  (* The sender gets a core of its own when one is free: its result, or
     the exception it raised, comes back through the join. *)
  let s_party =
    Parallel.Pool.fork (fun () ->
        let r =
          try Ok (Obs.Span.with_ "party:sender" (fun () -> sender s_ep)) with e -> Error e
        in
        (* On failure, unblock a receiver waiting on us. *)
        (match r with Error _ -> Channel.close s_ep | Ok _ -> ());
        r)
  in
  let r_result =
    try Ok (Obs.Span.with_ "party:receiver" (fun () -> receiver r_ep)) with e -> Error e
  in
  (match r_result with Error _ -> Channel.close r_ep | Ok _ -> ());
  let s_result = Parallel.Pool.await s_party in
  match (s_result, r_result) with
  | Ok sender_result, Ok receiver_result ->
      let sender_stats = Channel.stats s_ep in
      let receiver_stats = Channel.stats r_ep in
      {
        sender_result;
        receiver_result;
        sender_stats;
        receiver_stats;
        sender_view = Channel.received s_ep;
        receiver_view = Channel.received r_ep;
        total_bytes = sender_stats.Channel.bytes_sent + receiver_stats.Channel.bytes_sent;
      }
  | Error se, Error re -> (
      (* When both fail, surface the root cause: a "peer closed" error
         is the echo of the other side's crash, not the crash itself. *)
      if Errors.is_peer_closed se then raise re else raise se)
  | Error e, Ok _ | Ok _, Error e -> raise e

let run ~sender ~receiver = run_on (Channel.create ()) ~sender ~receiver
