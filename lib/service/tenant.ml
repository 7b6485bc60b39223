type source = {
  values_for : string -> string list;
  records_for : string -> (string * string) list;
}

type t = { id : string; secret : string; source : source }

type entry = {
  tenant : t;
  mutable cache : Cache.Ecache.t option;  (* opened lazily, under [lock] *)
  sessions : Obs.Metrics.counter;
  ops : Obs.Metrics.counter;
}

type registry = {
  cache_root : string option;
  cache_entries : int;
  entries : (string, entry) Hashtbl.t;
  order : string list;  (* registration order, for [ids] *)
  lock : Mutex.t;
}

(* Filesystem-safe tenant directory name: pass [A-Za-z0-9_-] through,
   hex-escape the rest, so distinct ids never collide on disk. *)
let sanitize id =
  let buf = Buffer.create (String.length id) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
    id;
  Buffer.contents buf

let create ?cache_root ?(cache_entries = 65536) tenants =
  let entries = Hashtbl.create 7 in
  List.iter
    (fun tenant ->
      if Hashtbl.mem entries tenant.id then
        invalid_arg ("Tenant.create: duplicate tenant id " ^ tenant.id);
      Hashtbl.add entries tenant.id
        {
          tenant;
          cache = None;
          sessions = Obs.Metrics.counter ("service.tenant." ^ tenant.id ^ ".sessions");
          ops = Obs.Metrics.counter ("service.tenant." ^ tenant.id ^ ".ops");
        })
    tenants;
  {
    cache_root;
    cache_entries;
    entries;
    order = List.map (fun t -> t.id) tenants;
    lock = Mutex.create ();
  }

let find reg id = Option.map (fun e -> e.tenant) (Hashtbl.find_opt reg.entries id)
let ids reg = reg.order

let entry reg tenant =
  match Hashtbl.find_opt reg.entries tenant.id with
  | Some e -> e
  | None -> invalid_arg ("Tenant: unregistered tenant " ^ tenant.id)

let cache_dir reg tenant =
  Option.map (fun root -> Filename.concat root (sanitize tenant.id)) reg.cache_root

let ecache reg tenant =
  match cache_dir reg tenant with
  | None -> None
  | Some dir ->
      let e = entry reg tenant in
      Mutex.protect reg.lock (fun () ->
          match e.cache with
          | Some _ as c -> c
          | None ->
              let c = Cache.Ecache.open_ ~max_entries:reg.cache_entries ~dir () in
              e.cache <- Some c;
              Some c)

let count_session reg tenant = Obs.Metrics.incr (entry reg tenant).sessions
let count_ops reg tenant n = Obs.Metrics.incr ~by:n (entry reg tenant).ops

let opened reg =
  Mutex.protect reg.lock (fun () ->
      Hashtbl.fold (fun _ e acc -> match e.cache with Some c -> c :: acc | None -> acc)
        reg.entries [])

let close_all reg =
  List.iter Cache.Ecache.close (opened reg);
  Mutex.protect reg.lock (fun () ->
      Hashtbl.iter (fun _ e -> e.cache <- None) reg.entries)
