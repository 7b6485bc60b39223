(* Tests for the wire substrate: serialization primitives, message
   encoding, the metered channel, and the two-thread runner. *)

module Buf = Wire.Buf
module Message = Wire.Message
module Channel = Wire.Channel
module Runner = Wire.Runner

let msg = Alcotest.testable Message.pp Message.equal

let qtest name ?(count = 200) gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let gen_string max_len =
  QCheck2.Gen.(
    bind (int_range 0 max_len) (fun n ->
        map
          (fun l -> String.init n (List.nth l))
          (list_repeat n (map Char.chr (int_range 0 255)))))

(* ------------------------------------------------------------------ *)
(* Buf                                                                 *)
(* ------------------------------------------------------------------ *)

let test_varint_known () =
  let enc n =
    let w = Buf.writer () in
    Buf.write_varint w n;
    Buf.contents w
  in
  Alcotest.(check string) "0" "\x00" (enc 0);
  Alcotest.(check string) "127" "\x7f" (enc 127);
  Alcotest.(check string) "128" "\x80\x01" (enc 128);
  Alcotest.(check string) "300" "\xac\x02" (enc 300)

let prop_varint_roundtrip =
  qtest "varint roundtrip"
    QCheck2.Gen.(int_range 0 max_int)
    string_of_int
    (fun n ->
      let w = Buf.writer () in
      Buf.write_varint w n;
      let r = Buf.reader (Buf.contents w) in
      let v = Buf.read_varint r in
      Buf.at_end r && v = n)

let prop_bytes_roundtrip =
  qtest "length-prefixed bytes roundtrip" (gen_string 300) String.escaped (fun s ->
      let w = Buf.writer () in
      Buf.write_bytes w s;
      let r = Buf.reader (Buf.contents w) in
      String.equal (Buf.read_bytes r) s && Buf.at_end r)

let test_u32_roundtrip () =
  List.iter
    (fun n ->
      let w = Buf.writer () in
      Buf.write_u32 w n;
      let r = Buf.reader (Buf.contents w) in
      Alcotest.(check int) (string_of_int n) n (Buf.read_u32 r))
    [ 0; 1; 255; 65536; 0xffffffff ]

let test_truncated_input () =
  let r = Buf.reader "\x05abc" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Buf.read_bytes r);
       false
     with Buf.Parse_error _ -> true)

let test_trailing_bytes () =
  let r = Buf.reader "\x00extra" in
  ignore (Buf.read_u8 r);
  Alcotest.(check bool) "raises" true
    (try
       Buf.expect_end r;
       false
     with Buf.Parse_error _ -> true)

let test_writer_bounds () =
  let w = Buf.writer () in
  List.iter
    (fun f ->
      Alcotest.(check bool) "rejected" true
        (try
           f ();
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Buf.write_u8 w 256);
      (fun () -> Buf.write_u8 w (-1));
      (fun () -> Buf.write_u32 w (-1));
      (fun () -> Buf.write_u32 w 0x1_0000_0000);
      (fun () -> Buf.write_varint w (-5));
    ];
  (* Reader: negative raw length is a parse error, not a crash. *)
  Alcotest.(check bool) "negative read_raw" true
    (try
       ignore (Buf.read_raw (Buf.reader "abc") (-2));
       false
     with Buf.Parse_error _ -> true)

let test_sequenced_fields () =
  let w = Buf.writer () in
  Buf.write_u8 w 7;
  Buf.write_bytes w "hello";
  Buf.write_varint w 1000;
  Buf.write_raw w "xy";
  let r = Buf.reader (Buf.contents w) in
  Alcotest.(check int) "u8" 7 (Buf.read_u8 r);
  Alcotest.(check string) "bytes" "hello" (Buf.read_bytes r);
  Alcotest.(check int) "varint" 1000 (Buf.read_varint r);
  Alcotest.(check string) "raw" "xy" (Buf.read_raw r 2);
  Buf.expect_end r

(* ------------------------------------------------------------------ *)
(* Message                                                             *)
(* ------------------------------------------------------------------ *)

let gen_message =
  QCheck2.Gen.(
    let elt = gen_string 40 in
    bind (int_range 0 3) (fun kind ->
        bind (list_size (int_range 0 10) elt) (fun es ->
            map
              (fun tag ->
                let payload =
                  match kind with
                  | 0 -> Message.Elements es
                  | 1 -> Message.Element_pairs (List.map (fun e -> (e, e ^ "x")) es)
                  | 2 -> Message.Element_triples (List.map (fun e -> (e, e ^ "y", "z")) es)
                  | _ -> Message.Ciphertext_pairs (List.map (fun e -> (e, "ct" ^ e)) es)
                in
                Message.make ~tag payload)
              (map (fun i -> "tag" ^ string_of_int i) (int_range 0 99)))))

let prop_message_roundtrip =
  qtest "message encode/decode roundtrip" gen_message
    (fun m -> Format.asprintf "%a" Message.pp m)
    (fun m -> Message.equal m (Message.decode (Message.encode m)))

let test_message_element_count () =
  Alcotest.(check int) "elements" 3
    (Message.element_count (Message.make ~tag:"t" (Message.Elements [ "a"; "b"; "c" ])));
  Alcotest.(check int) "pairs" 4
    (Message.element_count (Message.make ~tag:"t" (Message.Element_pairs [ ("a", "b"); ("c", "d") ])));
  Alcotest.(check int) "triples" 6
    (Message.element_count
       (Message.make ~tag:"t" (Message.Element_triples [ ("a", "b", "c"); ("d", "e", "f") ])));
  Alcotest.(check int) "ciphertext pairs" 2
    (Message.element_count
       (Message.make ~tag:"t" (Message.Ciphertext_pairs [ ("a", "b"); ("c", "d") ])))

let test_message_decode_garbage () =
  (* Valid magic/version/tag but an unknown payload kind. *)
  Alcotest.(check bool) "bad kind raises" true
    (try
       ignore (Message.decode "\xa5\x01\x01t\x09\x00");
       false
     with Buf.Parse_error _ -> true)

let test_message_versioning () =
  let m = Message.make ~tag:"t" (Message.Elements [ "a" ]) in
  let enc = Message.encode m in
  Alcotest.(check char) "magic byte" '\xa5' enc.[0];
  Alcotest.(check char) "version byte" '\x01' enc.[1];
  (* Wrong magic / unknown version are rejected. *)
  let patch i c = String.mapi (fun j x -> if j = i then c else x) enc in
  List.iter
    (fun s ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Message.decode s);
           false
         with Buf.Parse_error _ -> true))
    [ patch 0 '\x00'; patch 1 '\x02' ]

let test_message_size () =
  let m = Message.make ~tag:"t" (Message.Elements [ "aaaa" ]) in
  Alcotest.(check int) "size = encoded length" (String.length (Message.encode m))
    (Message.size m)

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

let m1 = Message.make ~tag:"m1" (Message.Elements [ "hello"; "world" ])
let m2 = Message.make ~tag:"m2" (Message.Element_pairs [ ("a", "b") ])

let test_channel_order () =
  let a, b = Channel.create () in
  Channel.send a m1;
  Channel.send a m2;
  Alcotest.check msg "first" m1 (Channel.recv b);
  Alcotest.check msg "second" m2 (Channel.recv b);
  Channel.send b m2;
  Alcotest.check msg "reverse direction" m2 (Channel.recv a)

let test_channel_stats () =
  let a, b = Channel.create () in
  Channel.send a m1;
  Channel.send a m2;
  ignore (Channel.recv b);
  ignore (Channel.recv b);
  let sa = Channel.stats a and sb = Channel.stats b in
  Alcotest.(check int) "a sent msgs" 2 sa.Channel.messages_sent;
  Alcotest.(check int) "a sent bytes" (Message.size m1 + Message.size m2) sa.Channel.bytes_sent;
  Alcotest.(check int) "a sent elements" 4 sa.Channel.elements_sent;
  Alcotest.(check int) "b recv msgs" 2 sb.Channel.messages_received;
  Alcotest.(check int) "b recv bytes" sa.Channel.bytes_sent sb.Channel.bytes_received;
  Alcotest.(check int) "a largest frame"
    (max (Message.size m1) (Message.size m2))
    sa.Channel.max_message_bytes;
  Alcotest.(check int) "b sent nothing, no max" 0 sb.Channel.max_message_bytes;
  Alcotest.(check int) "no closes yet" 0 sa.Channel.closes;
  Channel.close a;
  Channel.close a;
  Alcotest.(check int) "a closes counted" 2 (Channel.stats a).Channel.closes;
  Alcotest.(check int) "b never closed" 0 (Channel.stats b).Channel.closes

let test_channel_transcripts () =
  let a, b = Channel.create () in
  Channel.send a m1;
  Channel.send b m2;
  ignore (Channel.recv b);
  ignore (Channel.recv a);
  Alcotest.(check (list msg)) "a sent" [ m1 ] (Channel.sent a);
  Alcotest.(check (list msg)) "b view" [ m1 ] (Channel.received b);
  Alcotest.(check (list msg)) "a view" [ m2 ] (Channel.received a)

let test_channel_close_unblocks () =
  let a, b = Channel.create () in
  let t = Thread.create (fun () -> Channel.close a) () in
  Alcotest.(check bool) "recv fails after close" true
    (try
       ignore (Channel.recv b);
       false
     with Wire.Protocol_error _ -> true);
  Thread.join t

let test_channel_oversized_frame () =
  let a, b = Channel.create () in
  let big = Message.make ~tag:"big" (Message.Elements [ String.make 200 'x' ]) in
  Channel.send a big;
  Alcotest.(check bool) "oversized frame rejected" true
    (try
       ignore (Channel.recv ~max_bytes:64 b);
       false
     with Wire.Protocol_error _ -> true);
  (* A small frame under the same bound still goes through. *)
  Channel.send a m1;
  Alcotest.check msg "small frame ok" m1 (Channel.recv ~max_bytes:64 b)

let test_bounded_read_bytes () =
  let w = Buf.writer () in
  Buf.write_bytes w (String.make 100 'a');
  let enc = Buf.contents w in
  (* Claimed length over the caller's bound: typed parse error, before
     any allocation. *)
  Alcotest.(check bool) "over bound rejected" true
    (try
       ignore (Buf.read_bytes ~max:99 (Buf.reader enc));
       false
     with Buf.Parse_error _ -> true);
  Alcotest.(check string) "at bound ok" (String.make 100 'a')
    (Buf.read_bytes ~max:100 (Buf.reader enc));
  (* A length prefix claiming far more than the input holds: the bound
     check fires first (no dependence on the truncation check). *)
  let w = Buf.writer () in
  Buf.write_varint w max_int;
  Alcotest.(check bool) "huge claimed length rejected" true
    (try
       ignore (Buf.read_bytes (Buf.reader (Buf.contents w)));
       false
     with Buf.Parse_error _ -> true)

let test_truncated_frame_typed_error () =
  (* A frame cut mid-element decodes to Parse_error, not a crash. *)
  let enc = Message.encode m1 in
  let cut = String.sub enc 0 (String.length enc - 3) in
  Alcotest.(check bool) "truncated frame rejected" true
    (try
       ignore (Message.decode cut);
       false
     with Buf.Parse_error _ -> true)

let test_channel_threads () =
  (* Concurrent producer/consumer of 100 messages. *)
  let a, b = Channel.create () in
  let t =
    Thread.create
      (fun () ->
        for i = 1 to 100 do
          Channel.send a (Message.make ~tag:(string_of_int i) (Message.Elements []))
        done)
      ()
  in
  for i = 1 to 100 do
    let m = Channel.recv b in
    Alcotest.(check string) "ordered" (string_of_int i) m.Message.tag
  done;
  Thread.join t

(* ------------------------------------------------------------------ *)
(* Channel edge cases, transports, fault injection                     *)
(* ------------------------------------------------------------------ *)

module Transport = Wire.Transport
module Fault = Wire.Fault

let test_recv_after_close_with_pending () =
  (* A peer that sends then closes: the message must still arrive, and
     only the next recv fails. *)
  let a, b = Channel.create () in
  Channel.send a m1;
  Channel.close a;
  Alcotest.check msg "pending message delivered" m1 (Channel.recv b);
  Alcotest.(check bool) "then peer-closed" true
    (try
       ignore (Channel.recv b);
       false
     with Wire.Protocol_error _ -> true)

let test_double_close () =
  let a, b = Channel.create () in
  Channel.send a m1;
  Channel.close a;
  Channel.close a;
  Alcotest.(check int) "closes counted" 2 (Channel.stats a).Channel.closes;
  Alcotest.check msg "pending survives double close" m1 (Channel.recv b);
  (* Closing after the peer closed is still fine, on both ends. *)
  Channel.close b;
  Channel.close b;
  Alcotest.(check int) "peer closes counted" 2 (Channel.stats b).Channel.closes

let test_zero_byte_frame () =
  (* An empty frame is a transport-level possibility (truncation fault,
     hostile peer); it must fail message decoding, not crash. *)
  let a, b = Transport.Memory.pair () in
  let ep = Channel.of_transport b in
  Transport.send a "";
  Alcotest.(check bool) "zero-byte frame is a malformed frame" true
    (try
       ignore (Channel.recv ep);
       false
     with Wire.Protocol_error _ -> true)

let test_recv_timeout () =
  let _, b = Channel.create () in
  Alcotest.(check bool) "per-call timeout fires" true
    (try
       ignore (Channel.recv ~timeout_s:0.02 b);
       false
     with Wire.Timeout _ -> true);
  Channel.set_timeout b (Some 0.02);
  Alcotest.(check bool) "endpoint default timeout fires" true
    (try
       ignore (Channel.recv b);
       false
     with Wire.Timeout _ -> true)

let test_timeout_then_delivery () =
  (* A timeout is transient: the same endpoint still works afterwards. *)
  let a, b = Channel.create () in
  (try ignore (Channel.recv ~timeout_s:0.01 b) with Wire.Timeout _ -> ());
  Channel.send a m1;
  Alcotest.check msg "delivery after a timeout" m1 (Channel.recv ~timeout_s:1.0 b)

let test_socket_channel_roundtrip () =
  let ta, tb = Transport.Socket.pair () in
  let a = Channel.of_transport ta and b = Channel.of_transport tb in
  Alcotest.(check string) "backend name" "socket" (Channel.transport_name a);
  Channel.send a m1;
  Channel.send a m2;
  Channel.send b m2;
  Alcotest.check msg "first" m1 (Channel.recv ~timeout_s:5. b);
  Alcotest.check msg "second" m2 (Channel.recv ~timeout_s:5. b);
  Alcotest.check msg "reverse" m2 (Channel.recv ~timeout_s:5. a);
  (* Payload accounting is identical to the memory transport. *)
  Alcotest.(check int) "byte accounting"
    (Message.size m1 + Message.size m2)
    (Channel.stats a).Channel.bytes_sent;
  Channel.close a;
  Alcotest.(check bool) "close reaches the peer" true
    (try
       ignore (Channel.recv ~timeout_s:5. b);
       false
     with Wire.Protocol_error _ -> true)

let test_socket_oversized_frame () =
  let ta, tb = Transport.Socket.pair () in
  let a = Channel.of_transport ta and b = Channel.of_transport tb in
  let big = Message.make ~tag:"big" (Message.Elements [ String.make 200 'x' ]) in
  Channel.send a big;
  (* The prefix is checked against the bound before the payload buffer
     is allocated or read. *)
  Alcotest.(check bool) "oversized socket frame rejected" true
    (try
       ignore (Channel.recv ~timeout_s:5. ~max_bytes:64 b);
       false
     with Wire.Protocol_error _ -> true)

let test_socket_deadline_mid_frame () =
  (* A frame that stalls after the header: the deadline must fire even
     though the transfer already started. *)
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ep = Channel.of_transport (Transport.Socket.of_fd fd_a) in
  (* Header claims 10 bytes; only 3 ever arrive. *)
  let partial = "\x00\x00\x00\x0aabc" in
  let n = Unix.write_substring fd_b partial 0 (String.length partial) in
  Alcotest.(check int) "partial frame written" (String.length partial) n;
  Alcotest.(check bool) "deadline fires mid-frame" true
    (try
       ignore (Channel.recv ~timeout_s:0.05 ep);
       false
     with Wire.Timeout _ -> true);
  Unix.close fd_a;
  Unix.close fd_b

let test_socket_peer_vanishes_mid_frame () =
  (* EOF inside a frame is a protocol error, not a clean close. *)
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ep = Channel.of_transport (Transport.Socket.of_fd fd_a) in
  let partial = "\x00\x00\x00\x0aabc" in
  ignore (Unix.write_substring fd_b partial 0 (String.length partial));
  Unix.close fd_b;
  Alcotest.(check bool) "EOF mid-frame is a protocol error" true
    (try
       ignore (Channel.recv ~timeout_s:5. ep);
       false
     with Wire.Protocol_error _ -> true);
  Unix.close fd_a

let test_socket_tcp_nodelay () =
  (* Every TCP stream wrapped by [of_fd] disables Nagle: a frame is a
     length prefix and a payload written separately, and a small frame
     must not wait out the peer's delayed ACK. *)
  let lfd, port = Transport.Socket.listen ~port:0 () in
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let server, _ = Unix.accept lfd in
  List.iter
    (fun fd ->
      Alcotest.(check bool) "Nagle on before wrapping" false
        (Unix.getsockopt fd Unix.TCP_NODELAY);
      ignore (Transport.Socket.of_fd fd : Transport.t);
      Alcotest.(check bool) "TCP_NODELAY after of_fd" true
        (Unix.getsockopt fd Unix.TCP_NODELAY))
    [ client; server ];
  List.iter Unix.close [ client; server; lfd ];
  (* A Unix-domain socketpair has no Nagle to turn off. *)
  let a, b = Transport.Socket.pair () in
  Transport.close a;
  Transport.close b

(* ------------------------------------------------------------------ *)
(* Streaming sends                                                     *)
(* ------------------------------------------------------------------ *)

(* A [next] that hands out [xs] in chunks of [k]. *)
let chunked k xs =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | _ ->
        let rec take n = function
          | x :: tl when n > 0 ->
              let hd, rest = take (n - 1) tl in
              (x :: hd, rest)
          | l -> ([], l)
        in
        let hd, tl = take k !rest in
        rest := tl;
        Some hd

let test_stream_elements_byte_identical () =
  let width = 7 in
  let els = List.init 9 (fun i -> String.init width (fun j -> Char.chr (i + j))) in
  let plain = Message.make ~tag:"ys" (Message.Elements els) in
  let a, b = Channel.create () in
  (* Uneven chunking (4+4+1) must still assemble the exact frame
     [send a plain] would produce. *)
  Channel.send_elements_stream a ~tag:"ys" ~width ~count:(List.length els)
    (chunked 4 els);
  Alcotest.check msg "streamed frame decodes to the plain message" plain
    (Channel.recv b);
  Alcotest.(check int) "streamed frame length = Message.size"
    (Message.size plain)
    (Channel.stats a).Channel.bytes_sent;
  Alcotest.(check (list msg)) "transcript records the assembled message"
    [ plain ] (Channel.sent a)

let test_stream_pairs_byte_identical () =
  let width = 5 in
  let mk i c = String.init width (fun j -> Char.chr (i + j + Char.code c)) in
  let prs = List.init 11 (fun i -> (mk i 'a', mk i 'B')) in
  let plain = Message.make ~tag:"y-fy" (Message.Element_pairs prs) in
  let a, b = Channel.create () in
  Channel.send_pairs_stream a ~tag:"y-fy" ~width ~count:(List.length prs)
    (chunked 3 prs);
  Alcotest.check msg "streamed pairs decode to the plain message" plain
    (Channel.recv b);
  Alcotest.(check int) "streamed pairs frame length = Message.size"
    (Message.size plain)
    (Channel.stats a).Channel.bytes_sent

let test_stream_header_math () =
  (* The incremental encode writes [encode_header] then [count] fields
     of [field_len width] bytes each; that arithmetic must agree with
     the one-shot [encode] for every payload kind that streams. *)
  let check ~kind ~tag ~width m =
    let n = Message.element_count m in
    let per_item = match kind with 0 -> 1 | _ -> 2 in
    Alcotest.(check int)
      (Printf.sprintf "size arithmetic (kind %d)" kind)
      (String.length (Message.encode m))
      (String.length (Message.encode_header ~tag ~kind ~count:(n / per_item))
      + n * Message.field_len width)
  in
  let els = List.init 5 (fun _ -> String.make 4 'x') in
  check ~kind:0 ~tag:"t" ~width:4 (Message.make ~tag:"t" (Message.Elements els));
  let prs = List.init 6 (fun _ -> (String.make 9 'p', String.make 9 'q')) in
  check ~kind:1 ~tag:"pairs" ~width:9
    (Message.make ~tag:"pairs" (Message.Element_pairs prs));
  (* field_len folds the varint length prefix in. *)
  Alcotest.(check int) "field_len small" (1 + 4) (Message.field_len 4);
  Alcotest.(check int) "field_len at varint boundary" (2 + 128)
    (Message.field_len 128);
  Alcotest.(check int) "varint_len 0" 1 (Message.varint_len 0);
  Alcotest.(check int) "varint_len 127" 1 (Message.varint_len 127);
  Alcotest.(check int) "varint_len 128" 2 (Message.varint_len 128)

let test_stream_mismatch_rejected () =
  let a, _b = Channel.create () in
  Alcotest.(check bool) "wrong width rejected" true
    (try
       Channel.send_elements_stream a ~tag:"w" ~width:4 ~count:1
         (chunked 1 [ "toolong" ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "short count rejected" true
    (try
       Channel.send_elements_stream a ~tag:"w" ~width:4 ~count:3
         (chunked 2 [ "aaaa"; "bbbb" ]);
       false
     with Invalid_argument _ -> true)

let test_stream_over_socket () =
  let ta, tb = Transport.Socket.pair () in
  let a = Channel.of_transport ta and b = Channel.of_transport tb in
  let width = 8 in
  let els = List.init 100 (fun i -> Printf.sprintf "%08d" i) in
  let plain = Message.make ~tag:"ys" (Message.Elements els) in
  let got = ref None in
  let t = Thread.create (fun () -> got := Some (Channel.recv ~timeout_s:5. b)) () in
  Channel.send_elements_stream a ~tag:"ys" ~width ~count:(List.length els)
    (chunked 16 els);
  Thread.join t;
  (match !got with
  | Some m -> Alcotest.check msg "socket streamed frame" plain m
  | None -> Alcotest.fail "no message received");
  Alcotest.(check int) "socket streamed bytes = Message.size"
    (Message.size plain)
    (Channel.stats a).Channel.bytes_sent

let test_record_views_off () =
  let a, b = Channel.create () in
  Channel.send a m1;
  ignore (Channel.recv b);
  Channel.set_record_views a false;
  Channel.set_record_views b false;
  (* Turning recording off also releases what was already logged. *)
  Alcotest.(check (list msg)) "sent log released" [] (Channel.sent a);
  Alcotest.(check (list msg)) "received log released" [] (Channel.received b);
  let width = 5 in
  let els = List.init 8 (fun i -> Printf.sprintf "%05d" i) in
  let plain = Message.make ~tag:"ys" (Message.Elements els) in
  Channel.send a m2;
  Channel.send_elements_stream a ~tag:"ys" ~width ~count:(List.length els)
    (chunked 3 els);
  Alcotest.check msg "plain frame unaffected" m2 (Channel.recv b);
  Alcotest.check msg "streamed frame byte-identical with logs off" plain
    (Channel.recv b);
  Alcotest.(check (list msg)) "nothing new logged on a" [] (Channel.sent a);
  Alcotest.(check (list msg)) "nothing new logged on b" [] (Channel.received b);
  (* Counters keep full fidelity either way. *)
  let st = Channel.stats a in
  Alcotest.(check int) "messages counted" 3 st.Channel.messages_sent;
  Alcotest.(check int) "elements counted"
    (Message.element_count m1 + Message.element_count m2 + List.length els)
    st.Channel.elements_sent;
  Alcotest.(check int) "bytes counted"
    (Message.size m1 + Message.size m2 + Message.size plain)
    st.Channel.bytes_sent

let fault_pair plan =
  let a, b = Transport.Memory.pair () in
  let (fa, fb), stats = Fault.wrap_pair plan (a, b) in
  (Channel.of_transport fa, Channel.of_transport fb, stats)

let test_fault_drop () =
  let a, b, stats = fault_pair (Fault.plan ~drop:1.0 ~seed:"drop" ()) in
  Channel.send a m1;
  Alcotest.(check int) "drop counted" 1 stats.Fault.drops;
  Alcotest.(check bool) "dropped frame never arrives" true
    (try
       ignore (Channel.recv ~timeout_s:0.02 b);
       false
     with Wire.Timeout _ -> true)

let test_fault_duplicate () =
  let a, b, stats = fault_pair (Fault.plan ~duplicate:1.0 ~seed:"dup" ()) in
  Channel.send a m1;
  Alcotest.check msg "first copy" m1 (Channel.recv ~timeout_s:1. b);
  Alcotest.check msg "second copy" m1 (Channel.recv ~timeout_s:1. b);
  Alcotest.(check int) "duplicate counted" 1 stats.Fault.duplicates

let test_fault_truncate () =
  let a, b, stats = fault_pair (Fault.plan ~truncate:1.0 ~seed:"trunc" ()) in
  Channel.send a m1;
  Alcotest.(check bool) "truncated frame is a malformed frame" true
    (try
       ignore (Channel.recv ~timeout_s:1. b);
       false
     with Wire.Protocol_error _ -> true);
  Alcotest.(check int) "truncation counted" 1 stats.Fault.truncates

let test_fault_cut_after () =
  let a, b, stats = fault_pair (Fault.plan ~cut_after:1 ~seed:"cut" ()) in
  Channel.send a m1;
  Alcotest.(check bool) "second send disconnects" true
    (try
       Channel.send a m2;
       false
     with Wire.Protocol_error _ -> true);
  Alcotest.(check int) "disconnect counted" 1 stats.Fault.disconnects;
  (* The frame sent before the cut still drains; then the close shows. *)
  Alcotest.check msg "pre-cut frame drains" m1 (Channel.recv ~timeout_s:1. b);
  Alcotest.(check bool) "then peer-closed" true
    (try
       ignore (Channel.recv ~timeout_s:1. b);
       false
     with Wire.Protocol_error _ -> true)

let test_fault_determinism () =
  (* Same seed, same frame sequence: identical fault schedule. *)
  let run () =
    let a, b, stats =
      fault_pair
        (Fault.plan ~drop:0.3 ~truncate:0.2 ~duplicate:0.2 ~seed:"determinism" ())
    in
    for i = 1 to 30 do
      Channel.send a (Message.make ~tag:(string_of_int i) (Message.Elements []))
    done;
    let received = ref 0 in
    (try
       while true do
         match Channel.recv ~timeout_s:0.01 b with
         | _ -> incr received
         | exception Wire.Protocol_error _ -> incr received
       done
     with Wire.Timeout _ -> ());
    (stats.Fault.drops, stats.Fault.truncates, stats.Fault.duplicates, !received)
  in
  let d1, t1, u1, r1 = run () in
  let d2, t2, u2, r2 = run () in
  Alcotest.(check (list int))
    "fault schedule replays from the seed" [ d1; t1; u1; r1 ] [ d2; t2; u2; r2 ];
  Alcotest.(check bool) "schedule actually injected faults" true (d1 > 0 && t1 > 0 && u1 > 0)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_pingpong () =
  let outcome =
    Runner.run
      ~sender:(fun ep ->
        Channel.send ep m1;
        let got = Channel.recv ep in
        got.Message.tag)
      ~receiver:(fun ep ->
        let got = Channel.recv ep in
        Channel.send ep m2;
        got.Message.tag)
  in
  Alcotest.(check string) "sender got" "m2" outcome.Runner.sender_result;
  Alcotest.(check string) "receiver got" "m1" outcome.Runner.receiver_result;
  Alcotest.(check int) "total bytes" (Message.size m1 + Message.size m2) outcome.Runner.total_bytes;
  Alcotest.(check (list msg)) "receiver view" [ m1 ] outcome.Runner.receiver_view;
  Alcotest.(check (list msg)) "sender view" [ m2 ] outcome.Runner.sender_view

let test_runner_sender_exception () =
  Alcotest.check_raises "propagates" (Failure "sender boom") (fun () ->
      ignore
        (Runner.run
           ~sender:(fun _ -> failwith "sender boom")
           ~receiver:(fun ep ->
             try ignore (Channel.recv ep) with Wire.Protocol_error _ -> ())))

let test_runner_receiver_exception () =
  Alcotest.check_raises "propagates" (Failure "receiver boom") (fun () ->
      ignore
        (Runner.run
           ~sender:(fun ep ->
             try ignore (Channel.recv ep) with Wire.Protocol_error _ -> ())
           ~receiver:(fun _ -> failwith "receiver boom")))

let test_runner_deadlock_free_on_crash () =
  (* Receiver crashes while sender waits forever: close must unblock. *)
  match
    Runner.run
      ~sender:(fun ep ->
        try ignore (Channel.recv ep); "no" with Wire.Protocol_error _ -> "unblocked")
      ~receiver:(fun _ -> failwith "early crash")
  with
  | exception Failure m -> Alcotest.(check string) "receiver error wins" "early crash" m
  | _ -> Alcotest.fail "expected exception"

(* ------------------------------------------------------------------ *)
(* Record log                                                          *)
(* ------------------------------------------------------------------ *)

module Log = Wire.Record_log

let log_path () =
  let path = Filename.temp_file "record_log" ".log" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let frames = function
  | Log.Read { acc; valid; clean } -> (List.rev acc, valid, clean)
  | Log.Missing | Log.Foreign -> Alcotest.fail "expected a readable log"

let body_list = Alcotest.(list (option string))

let as_options = List.map (function Log.Body b -> Some b | Log.Corrupt -> None)

let test_log_roundtrip () =
  let path = log_path () in
  Log.write ~kind:"probe" path (List.to_seq [ "one"; "" ]);
  let a = Log.open_append ~kind:"probe" path in
  Log.append a "three";
  Log.close a;
  let fs, valid, clean = frames (Log.fold ~kind:"probe" path ~init:[] (fun acc f -> f :: acc)) in
  Alcotest.check body_list "bodies in order" [ Some "one"; Some ""; Some "three" ] (as_options fs);
  Alcotest.(check bool) "clean" true clean;
  let size = Int64.to_int (In_channel.with_open_bin path In_channel.length) in
  Alcotest.(check int) "valid is the whole file" size valid;
  Alcotest.(check bool) "is_log" true (Log.is_log ~kind:"probe" path);
  Alcotest.(check bool) "another kind is foreign" false (Log.is_log ~kind:"other" path);
  match Log.fold ~kind:"other" path ~init:() (fun () _ -> ()) with
  | Log.Foreign -> ()
  | _ -> Alcotest.fail "another kind must read as Foreign"

(* A ninth length byte would land on OCaml's sign bit and decode to a
   negative length; the reader must stop there as an unclean end, not
   raise. *)
let test_log_nine_byte_length () =
  let path = log_path () in
  let hdr = Log.header "probe" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc hdr;
      output_string oc "\x80\x80\x80\x80\x80\x80\x80\x80\x40";
      output_string oc (String.make 16 'x'));
  let fs, valid, clean = frames (Log.fold ~kind:"probe" path ~init:[] (fun acc f -> f :: acc)) in
  Alcotest.check body_list "one corrupt tail" [ None ] (as_options fs);
  Alcotest.(check int) "valid prefix is the header" (String.length hdr) valid;
  Alcotest.(check bool) "unclean" false clean

(* A claimed length far past the file's end is refused before anything
   is allocated: the read ends on a corrupt tail. *)
let test_log_huge_length () =
  let path = log_path () in
  let hdr = Log.header "probe" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc hdr;
      (* 2^55 as LEB128: seven continuation bytes, then bit 6 of the
         eighth group. *)
      output_string oc "\x80\x80\x80\x80\x80\x80\x80\x40";
      output_string oc (String.make 16 'x'));
  let before = Gc.allocated_bytes () in
  let read = Log.fold ~kind:"probe" path ~init:[] (fun acc f -> f :: acc) in
  let allocated = Gc.allocated_bytes () -. before in
  let fs, valid, clean = frames read in
  Alcotest.check body_list "one corrupt tail" [ None ] (as_options fs);
  Alcotest.(check int) "valid prefix is the header" (String.length hdr) valid;
  Alcotest.(check bool) "unclean" false clean;
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes" allocated)
    true
    (allocated < 65536.)

(* [write] forces its bodies one at a time; a lazily built sequence and
   a list give the same bytes. *)
let test_log_write_seq () =
  let body i = String.make (i * 7) (Char.chr (65 + (i mod 26))) in
  let from_list = log_path () and from_seq = log_path () in
  Log.write ~kind:"probe" from_list (List.to_seq (List.init 40 body));
  Log.write ~kind:"probe" from_seq (Seq.init 40 body);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "byte-identical" (read from_list) (read from_seq);
  let fs, _, clean = frames (Log.fold ~kind:"probe" from_seq ~init:[] (fun acc f -> f :: acc)) in
  Alcotest.check body_list "bodies in order" (List.init 40 (fun i -> Some (body i))) (as_options fs);
  Alcotest.(check bool) "clean" true clean

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wire"
    [
      ( "buf",
        [
          Alcotest.test_case "varint known encodings" `Quick test_varint_known;
          prop_varint_roundtrip;
          prop_bytes_roundtrip;
          Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip;
          Alcotest.test_case "truncated input" `Quick test_truncated_input;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
          Alcotest.test_case "writer bounds" `Quick test_writer_bounds;
          Alcotest.test_case "bounded read_bytes" `Quick test_bounded_read_bytes;
          Alcotest.test_case "sequenced fields" `Quick test_sequenced_fields;
        ] );
      ( "message",
        [
          prop_message_roundtrip;
          Alcotest.test_case "element counts" `Quick test_message_element_count;
          Alcotest.test_case "garbage rejected" `Quick test_message_decode_garbage;
          Alcotest.test_case "truncated frame typed error" `Quick
            test_truncated_frame_typed_error;
          Alcotest.test_case "magic and version" `Quick test_message_versioning;
          Alcotest.test_case "size" `Quick test_message_size;
        ] );
      ( "channel",
        [
          Alcotest.test_case "FIFO order" `Quick test_channel_order;
          Alcotest.test_case "stats" `Quick test_channel_stats;
          Alcotest.test_case "transcripts" `Quick test_channel_transcripts;
          Alcotest.test_case "record views off" `Quick test_record_views_off;
          Alcotest.test_case "close unblocks" `Quick test_channel_close_unblocks;
          Alcotest.test_case "oversized frame" `Quick test_channel_oversized_frame;
          Alcotest.test_case "cross-thread" `Quick test_channel_threads;
          Alcotest.test_case "recv after close with pending" `Quick
            test_recv_after_close_with_pending;
          Alcotest.test_case "double close" `Quick test_double_close;
          Alcotest.test_case "zero-byte frame" `Quick test_zero_byte_frame;
          Alcotest.test_case "recv timeout" `Quick test_recv_timeout;
          Alcotest.test_case "timeout then delivery" `Quick test_timeout_then_delivery;
        ] );
      ( "transport",
        [
          Alcotest.test_case "socket channel roundtrip" `Quick
            test_socket_channel_roundtrip;
          Alcotest.test_case "socket oversized frame" `Quick test_socket_oversized_frame;
          Alcotest.test_case "socket deadline mid-frame" `Quick
            test_socket_deadline_mid_frame;
          Alcotest.test_case "socket EOF mid-frame" `Quick
            test_socket_peer_vanishes_mid_frame;
          Alcotest.test_case "socket TCP_NODELAY" `Quick test_socket_tcp_nodelay;
        ] );
      ( "stream",
        [
          Alcotest.test_case "elements frame byte-identical" `Quick
            test_stream_elements_byte_identical;
          Alcotest.test_case "pairs frame byte-identical" `Quick
            test_stream_pairs_byte_identical;
          Alcotest.test_case "header/field size arithmetic" `Quick
            test_stream_header_math;
          Alcotest.test_case "width/count mismatch rejected" `Quick
            test_stream_mismatch_rejected;
          Alcotest.test_case "streamed over socket" `Quick test_stream_over_socket;
        ] );
      ( "fault",
        [
          Alcotest.test_case "drop" `Quick test_fault_drop;
          Alcotest.test_case "duplicate" `Quick test_fault_duplicate;
          Alcotest.test_case "truncate" `Quick test_fault_truncate;
          Alcotest.test_case "cut after" `Quick test_fault_cut_after;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
        ] );
      ( "record_log",
        [
          Alcotest.test_case "write, append, fold" `Quick test_log_roundtrip;
          Alcotest.test_case "nine-byte length is an unclean end" `Quick
            test_log_nine_byte_length;
          Alcotest.test_case "2^55-byte length allocates nothing" `Quick
            test_log_huge_length;
          Alcotest.test_case "write from a Seq = from a list" `Quick test_log_write_seq;
        ] );
      ( "runner",
        [
          Alcotest.test_case "ping-pong" `Quick test_runner_pingpong;
          Alcotest.test_case "sender exception" `Quick test_runner_sender_exception;
          Alcotest.test_case "receiver exception" `Quick test_runner_receiver_exception;
          Alcotest.test_case "crash does not deadlock" `Quick test_runner_deadlock_free_on_crash;
        ] );
    ]
