type counters = {
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_received : int;
  mutable bytes_received : int;
  mutable elements_sent : int;
  mutable closes : int;
  mutable max_message_bytes : int;
  mutable sent_log : Message.t list; (* reversed *)
  mutable received_log : Message.t list; (* reversed *)
}

type endpoint = {
  tr : Transport.t;
  c : counters;
  mutable recv_timeout_s : float option;
  mutable record_views : bool;
}

(* Process-wide telemetry (no-ops unless Obs is enabled). *)
let m_messages_sent = Obs.Metrics.counter "wire.messages_sent"
let m_bytes_sent = Obs.Metrics.counter "wire.bytes_sent"
let m_elements_sent = Obs.Metrics.counter "wire.elements_sent"
let m_closes = Obs.Metrics.counter "wire.closes"
let m_timeouts = Obs.Metrics.counter "wire.timeouts"
let h_message_bytes = Obs.Metrics.histogram "wire.message_bytes"
let h_recv_wait_ns = Obs.Metrics.histogram "wire.recv_wait_ns"

let fresh_counters () =
  {
    messages_sent = 0;
    bytes_sent = 0;
    messages_received = 0;
    bytes_received = 0;
    elements_sent = 0;
    closes = 0;
    max_message_bytes = 0;
    sent_log = [];
    received_log = [];
  }

let of_transport tr =
  { tr; c = fresh_counters (); recv_timeout_s = None; record_views = true }

let create () =
  let a, b = Transport.Memory.pair () in
  (of_transport a, of_transport b)

let transport_name ep = Transport.name ep.tr
let set_timeout ep t = ep.recv_timeout_s <- t

let set_record_views ep b =
  ep.record_views <- b;
  if not b then begin
    (* Release what was already retained: turning recording off is a
       memory decision, and a half-kept transcript is useless anyway. *)
    ep.c.sent_log <- [];
    ep.c.received_log <- []
  end

let record_sent_counts ep ~elements len =
  ep.c.messages_sent <- ep.c.messages_sent + 1;
  ep.c.bytes_sent <- ep.c.bytes_sent + len;
  ep.c.elements_sent <- ep.c.elements_sent + elements;
  if len > ep.c.max_message_bytes then ep.c.max_message_bytes <- len;
  Obs.Metrics.incr m_messages_sent;
  Obs.Metrics.incr ~by:len m_bytes_sent;
  Obs.Metrics.incr ~by:elements m_elements_sent;
  Obs.Metrics.observe h_message_bytes (float_of_int len)

let record_sent ep m len =
  record_sent_counts ep ~elements:(Message.element_count m) len;
  if ep.record_views then ep.c.sent_log <- m :: ep.c.sent_log

let send ep m =
  let bytes = Message.encode m in
  record_sent ep m (String.length bytes);
  Obs.Span.with_ "wire/send" (fun () -> Transport.send ep.tr bytes)

(* Streamed sends: one frame, byte-identical to [send] of the
   equivalent message, whose items are pulled from [next] in chunks as
   the transport drains them. Fixed-width fields make the total frame
   length computable upfront. The assembled message still lands in the
   sent log (transcript/leakage tests see the same view either way);
   accounting happens once the frame is fully on the wire. *)
let send_stream_generic ep ~tag ~kind ~count ~elements_per_item ~item_len
    ~encode_item ~to_payload next =
  let header = Message.encode_header ~tag ~kind ~count in
  let total = String.length header + (count * item_len) in
  (* With recording off the items are never retained: each chunk is
     encoded, handed to the transport, and dropped — the O(count) log
     copy is exactly what a memory-bounded streaming run can't pay. *)
  let collect = ep.record_views in
  let collected = ref [] in
  let header_sent = ref false in
  let produce () =
    if not !header_sent then begin
      header_sent := true;
      Some header
    end
    else
      match next () with
      | None -> None
      | Some items ->
          if collect then collected := List.rev_append items !collected;
          (* Sized exactly: a growing buffer would leave a trail of
             large copies per chunk in the major heap. *)
          let w = Buf.writer ~size:(List.length items * item_len) () in
          List.iter (encode_item w) items;
          Some (Buf.contents w)
  in
  Obs.Span.with_ "wire/send" (fun () -> Transport.send_stream ep.tr ~total produce);
  if collect then
    let m = Message.make ~tag (to_payload (List.rev !collected)) in
    record_sent ep m total
  else record_sent_counts ep ~elements:(count * elements_per_item) total

let check_width ~what ~width s =
  if String.length s <> width then
    invalid_arg (Printf.sprintf "%s: element is not %d bytes" what width)

let send_elements_stream ep ~tag ~width ~count next =
  send_stream_generic ep ~tag ~kind:0 ~count ~elements_per_item:1
    ~item_len:(Message.field_len width)
    ~encode_item:(fun w s ->
      check_width ~what:"Channel.send_elements_stream" ~width s;
      Buf.write_bytes w s)
    ~to_payload:(fun es -> Message.Elements es)
    next

let send_pairs_stream ep ~tag ~width ~count next =
  send_stream_generic ep ~tag ~kind:1 ~count ~elements_per_item:2
    ~item_len:(2 * Message.field_len width)
    ~encode_item:(fun w (a, b) ->
      check_width ~what:"Channel.send_pairs_stream" ~width a;
      check_width ~what:"Channel.send_pairs_stream" ~width b;
      Buf.write_bytes w a;
      Buf.write_bytes w b)
    ~to_payload:(fun ps -> Message.Element_pairs ps)
    next

(* Frames larger than this are rejected on receive before decoding. A
   frame holds a whole protocol message (up to a few thousand group
   elements), so the cap is generous; it exists to bound what a broken
   or hostile peer can make us buffer and parse. *)
let max_frame_bytes = Transport.max_frame_bytes

let recv ?timeout_s ?(max_bytes = max_frame_bytes) ep =
  let t0 = if Obs.Runtime.is_enabled () then Obs.Clock.now_ns () else 0L in
  let deadline =
    match (timeout_s, ep.recv_timeout_s) with
    | Some s, _ | None, Some s -> Some (Transport.now_s () +. s)
    | None, None -> None
  in
  let bytes =
    (* The recv span is what psi_trace attributes as wire wait; the
       body covers only the blocking read, not decode/accounting. *)
    Obs.Span.with_ "wire/recv" @@ fun () ->
    match Transport.recv ?deadline ~max_bytes ep.tr with
    | bytes -> bytes
    | exception (Errors.Timeout _ as e) ->
        Obs.Metrics.incr m_timeouts;
        raise e
  in
  if String.length bytes > max_bytes then
    Errors.protocol_errorf "Channel.recv: frame of %d bytes exceeds bound %d"
      (String.length bytes) max_bytes;
  if Obs.Runtime.is_enabled () then
    Obs.Metrics.observe h_recv_wait_ns
      (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0));
  let m =
    match Message.decode bytes with
    | m -> m
    | exception Buf.Parse_error msg -> Errors.protocol_errorf "malformed frame: %s" msg
  in
  ep.c.messages_received <- ep.c.messages_received + 1;
  ep.c.bytes_received <- ep.c.bytes_received + String.length bytes;
  if ep.record_views then ep.c.received_log <- m :: ep.c.received_log;
  m

let close ep =
  ep.c.closes <- ep.c.closes + 1;
  Obs.Metrics.incr m_closes;
  Transport.close ep.tr

type stats = {
  messages_sent : int;
  bytes_sent : int;
  messages_received : int;
  bytes_received : int;
  elements_sent : int;
  closes : int;
  max_message_bytes : int;
}

let stats ep =
  {
    messages_sent = ep.c.messages_sent;
    bytes_sent = ep.c.bytes_sent;
    messages_received = ep.c.messages_received;
    bytes_received = ep.c.bytes_received;
    elements_sent = ep.c.elements_sent;
    closes = ep.c.closes;
    max_message_bytes = ep.c.max_message_bytes;
  }

let received ep = List.rev ep.c.received_log
let sent ep = List.rev ep.c.sent_log
