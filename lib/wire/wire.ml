(* Library root: re-export the wire modules and give the typed failure
   exceptions their short, stable names. *)

exception Protocol_error = Errors.Protocol_error
exception Timeout = Errors.Timeout
exception Peer_violation = Errors.Peer_violation

module Errors = Errors
module Buf = Buf
module Message = Message
module Transport = Transport
module Fault = Fault
module Channel = Channel
module Runner = Runner
module Record_log = Record_log
module Snapshot = Snapshot
