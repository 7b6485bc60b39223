module type S = sig
  type conn

  val name : string
  val send : conn -> string -> unit
  val send_stream : conn -> total:int -> (unit -> string option) -> unit
  val recv : ?deadline:float -> ?max_bytes:int -> conn -> string
  val close : conn -> unit
end

type t = Conn : (module S with type conn = 'c) * 'c -> t

let max_frame_bytes = 64 * 1024 * 1024
let now_s () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

let send (Conn ((module M), c)) frame = M.send c frame

let send_stream (Conn ((module M), c)) ~total produce =
  M.send_stream c ~total produce

(* Default [send_stream] for backends without incremental writes: pull
   every chunk, then hand the assembled frame to [send] — semantics
   (whole frames, one per send) identical to a plain send. *)
let buffered_send_stream send c ~total produce =
  let buf = Buffer.create total in
  let rec pull () =
    match produce () with
    | Some chunk ->
        Buffer.add_string buf chunk;
        pull ()
    | None -> ()
  in
  pull ();
  if Buffer.length buf <> total then
    invalid_arg "Transport.send_stream: produced bytes do not match total";
  send c (Buffer.contents buf)

let recv ?deadline ?max_bytes (Conn ((module M), c)) =
  M.recv ?deadline ?max_bytes c

let close (Conn ((module M), c)) = M.close c
let name (Conn ((module M), _)) = M.name

(* How often a deadline-bounded wait on a condition variable rechecks
   the clock. [Condition] has no timed wait, so [Memory.recv] polls at
   this granularity once a deadline is set (plain waits stay
   poll-free). *)
let memory_poll_interval_s = 0.002

module Memory = struct
  type shared = {
    mutex : Mutex.t;
    cond : Condition.t;
    queue : string Queue.t; (* frames in flight *)
    mutable fin : bool;
  }

  type conn = { inbox : shared; outbox : shared }

  let name = "memory"

  let fresh_shared () =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      fin = false;
    }

  let send c frame =
    let s = c.outbox in
    Mutex.lock s.mutex;
    Queue.push frame s.queue;
    Condition.signal s.cond;
    Mutex.unlock s.mutex

  (* Queue granularity is whole frames, so a streamed send assembles
     the frame first: the producer's interleaving is invisible to the
     peer, exactly as with plain [send]. *)
  let send_stream c ~total produce = buffered_send_stream send c ~total produce

  (* Pending frames win over a close: a peer that sent then closed has
     those frames delivered before recv starts failing (half-closed TCP
     semantics, and what multi-op sessions rely on). *)
  let recv ?deadline ?max_bytes:_ c =
    let s = c.inbox in
    let t0 = now_s () in
    Mutex.lock s.mutex;
    let rec wait () =
      if not (Queue.is_empty s.queue) then begin
        let frame = Queue.pop s.queue in
        Mutex.unlock s.mutex;
        frame
      end
      else if s.fin then begin
        Mutex.unlock s.mutex;
        raise Errors.peer_closed
      end
      else
        match deadline with
        | None ->
            Condition.wait s.cond s.mutex;
            wait ()
        | Some d ->
            let remaining = d -. now_s () in
            if remaining <= 0. then begin
              Mutex.unlock s.mutex;
              Errors.timeout ~what:"memory transport recv"
                ~waited_s:(now_s () -. t0)
            end
            else begin
              (* No timed condition wait in the stdlib: poll. *)
              Mutex.unlock s.mutex;
              Thread.delay (Float.min memory_poll_interval_s remaining);
              Mutex.lock s.mutex;
              wait ()
            end
    in
    wait ()

  let close c =
    let s = c.outbox in
    Mutex.lock s.mutex;
    s.fin <- true;
    Condition.broadcast s.cond;
    Mutex.unlock s.mutex

  let pack c = Conn ((module struct
                      type nonrec conn = conn

                      let name = name
                      let send = send
                      let send_stream = send_stream
                      let recv = recv
                      let close = close
                    end), c)

  let pair () =
    let ab = fresh_shared () and ba = fresh_shared () in
    (pack { inbox = ba; outbox = ab }, pack { inbox = ab; outbox = ba })
end

module Socket = struct
  type conn = { fd : Unix.file_descr; mutable fin_sent : bool }

  let name = "socket"

  (* A write to a peer that already closed must surface as a typed
     error, not a fatal SIGPIPE; installed once, on first use. *)
  let ignore_sigpipe =
    lazy (if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

  let rec restart_eintr f =
    try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

  (* Block until [fd] is readable, honouring the absolute [deadline]. *)
  let wait_readable ~what fd deadline t0 =
    let rec go () =
      let timeout =
        match deadline with
        | None -> -1. (* block indefinitely *)
        | Some d ->
            let remaining = d -. now_s () in
            if remaining <= 0. then
              Errors.timeout ~what ~waited_s:(now_s () -. t0)
            else remaining
      in
      match restart_eintr (fun () -> Unix.select [ fd ] [] [] timeout) with
      | [], _, _ -> go () (* select timed out; recheck the deadline *)
      | _ -> ()
    in
    go ()

  let read_exact ~what c deadline t0 buf ~at_boundary =
    let off = ref 0 and len = ref (Bytes.length buf) in
    while !len > 0 do
      wait_readable ~what c.fd deadline t0;
      let k =
        match
          restart_eintr (fun () -> Unix.read c.fd buf !off !len)
        with
        | k -> k
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            Errors.protocol_errorf "Transport.Socket: connection reset by peer"
      in
      if k = 0 then
        if at_boundary && !off = 0 then
          (* EOF between frames: a clean shutdown by the peer. *)
          raise Errors.peer_closed
        else
          Errors.protocol_errorf
            "Transport.Socket: peer closed mid-frame (%d of %d bytes)" !off
            (!off + !len)
      else begin
        off := !off + k;
        len := !len - k
      end
    done

  let recv ?deadline ?(max_bytes = max_frame_bytes) c =
    let t0 = now_s () in
    let prefix = Bytes.create 4 in
    read_exact ~what:"socket recv (frame header)" c deadline t0 prefix
      ~at_boundary:true;
    let b i = Char.code (Bytes.get prefix i) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    (* The claimed length is attacker-controlled: bound it before
       allocating the payload buffer. *)
    if n > max_bytes then
      Errors.protocol_errorf
        "Transport.Socket: frame of %d bytes exceeds bound %d" n max_bytes;
    let payload = Bytes.create n in
    read_exact ~what:"socket recv (frame payload)" c deadline t0 payload
      ~at_boundary:false;
    Bytes.unsafe_to_string payload

  let write_all fd bytes =
    let off = ref 0 and len = ref (Bytes.length bytes) in
    while !len > 0 do
      let k =
        match
          restart_eintr (fun () -> Unix.write fd bytes !off !len)
        with
        | k -> k
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            Errors.protocol_errorf "Transport.Socket: peer closed the connection"
      in
      off := !off + k;
      len := !len - k
    done

  let write_prefix c len =
    if len > 0xffffffff then
      invalid_arg "Transport.Socket.send: frame exceeds u32 length prefix";
    let prefix = Bytes.create 4 in
    Bytes.set prefix 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set prefix 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set prefix 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set prefix 3 (Char.chr (len land 0xff));
    write_all c.fd prefix

  let send c frame =
    write_prefix c (String.length frame);
    write_all c.fd (Bytes.of_string frame)

  (* Streamed send: the length prefix is known upfront, so each chunk
     goes to the kernel as soon as it is produced — the peer can be
     reading chunk k while the producer encrypts chunk k+1. On the wire
     this is byte-identical to [send] of the concatenated chunks. *)
  let send_stream c ~total produce =
    write_prefix c total;
    let written = ref 0 in
    let rec pull () =
      match produce () with
      | Some chunk ->
          written := !written + String.length chunk;
          if !written > total then
            invalid_arg
              "Transport.Socket.send_stream: produced bytes exceed total";
          write_all c.fd (Bytes.of_string chunk);
          pull ()
      | None ->
          if !written <> total then
            Errors.protocol_errorf
              "Transport.Socket.send_stream: produced %d of %d bytes" !written
              total
    in
    pull ()

  let close c =
    if not c.fin_sent then begin
      c.fin_sent <- true;
      match Unix.shutdown c.fd Unix.SHUTDOWN_SEND with
      | () -> ()
      | exception Unix.Unix_error ((Unix.ENOTCONN | Unix.EBADF | Unix.EPIPE), _, _)
        ->
          (* Peer already gone or fd already released: close is best
             effort by contract. *)
          ()
    end

  let pack c = Conn ((module struct
                      type nonrec conn = conn

                      let name = name
                      let send = send
                      let send_stream = send_stream
                      let recv = recv
                      let close = close
                    end), c)

  (* [send] writes the length prefix and the payload separately; with
     Nagle on, every small frame would wait out the peer's delayed ACK. *)
  let of_fd fd =
    Lazy.force ignore_sigpipe;
    (match Unix.getsockname fd with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
    | Unix.ADDR_UNIX _ -> ());
    pack { fd; fin_sent = false }

  let pair () =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (of_fd a, of_fd b)

  let listen ?(backlog = 4) ~port () =
    let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt lfd Unix.SO_REUSEADDR true;
    Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen lfd backlog;
    let bound_port =
      match Unix.getsockname lfd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> port
    in
    (lfd, bound_port)

  let accept ?deadline lfd =
    let t0 = now_s () in
    wait_readable ~what:"socket accept" lfd deadline t0;
    let fd, _ = restart_eintr (fun () -> Unix.accept lfd) in
    of_fd fd

  let connect ~host ~port =
    let addrs =
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
    in
    let addrs =
      match addrs with
      | [] ->
          [ { Unix.ai_family = Unix.PF_INET;
              ai_socktype = Unix.SOCK_STREAM;
              ai_protocol = 0;
              ai_addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port);
              ai_canonname = "" } ]
      | _ :: _ -> addrs
    in
    let rec try_addrs last_err = function
      | [] ->
          Errors.protocol_errorf "Transport.Socket.connect: %s:%d unreachable (%s)"
            host port last_err
      | ai :: rest -> (
          let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
          match Unix.connect fd ai.Unix.ai_addr with
          | () -> of_fd fd
          | exception Unix.Unix_error (e, _, _) ->
              Unix.close fd;
              try_addrs (Unix.error_message e) rest)
    in
    try_addrs "no address resolved" addrs
end
