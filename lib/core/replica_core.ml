module Op_log = Ci_rsm.Op_log
module Kv_store = Ci_rsm.Kv_store
module Session_table = Ci_rsm.Session_table
module Command = Ci_rsm.Command

type executed = { inst : int; v : Wire.value; result : Ci_rsm.Command.result }

type t = {
  replica : int;
  log : Wire.value Op_log.t;
  store : Kv_store.t;
  sessions : Session_table.t;
  mutable executed_upto : int; (* first unexecuted instance *)
}

let create ~replica =
  {
    replica;
    log = Op_log.create ~equal:Wire.value_equal ();
    store = Kv_store.create ();
    sessions = Session_table.create ();
    executed_upto = 0;
  }

(* Execute one decided value with at-most-once client semantics. *)
let execute t (v : Wire.value) =
  match Session_table.find t.sessions ~client:v.client ~req_id:v.req_id with
  | Some cached -> cached
  | None ->
    let result = Kv_store.apply t.store v.cmd in
    Session_table.record t.sessions ~client:v.client ~req_id:v.req_id result;
    result

let learn t ~inst v =
  match Op_log.decide t.log ~inst v with
  | `Duplicate | `Conflict _ -> []
  | `New ->
    let fresh = ref [] in
    let next =
      Op_log.iter_prefix t.log ~from_:t.executed_upto (fun inst v ->
          let result = execute t v in
          fresh := { inst; v; result } :: !fresh)
    in
    t.executed_upto <- next;
    List.rev !fresh

let is_decided t ~inst = Op_log.is_decided t.log ~inst
let decided_value t ~inst = Op_log.get t.log ~inst
let first_gap t = Op_log.first_gap t.log
let highest_decided t = Op_log.highest_decided t.log

let decisions_from t ~from_ = Op_log.to_list_from t.log ~from_

let cached_result t ~client ~req_id =
  Session_table.find t.sessions ~client ~req_id

let local_get t ~key = Kv_store.get t.store key

let local_read t (cmd : Command.t) : Command.result option =
  match cmd with
  | Command.Get { key } -> Some (Command.Found (Kv_store.get t.store key))
  | Command.Range { lo; hi } ->
    Some (Command.Vals (Kv_store.range t.store ~lo ~hi))
  | Command.Put _ | Command.Cas _ | Command.Nop | Command.Mput _
  | Command.Prep _ | Command.Fin _ -> None

let commits t = t.executed_upto

let view t =
  {
    Ci_rsm.Consistency.replica = t.replica;
    decisions = Op_log.to_list t.log;
    fingerprint = Kv_store.fingerprint t.store;
    executed_prefix = t.executed_upto;
  }

let log t =
  {
    Ci_rsm.Consistency.log_replica = t.replica;
    iter_decisions = (fun f -> Op_log.iter t.log f);
    log_fingerprint = Kv_store.fingerprint t.store;
    log_executed_prefix = t.executed_upto;
  }

(* Structural fingerprint for the explorer's visited-state table. The
   view already covers the decided log, the store contents and the
   executed prefix; the session table is a function of the executed
   prefix and need not be hashed separately. [hash_param] with a large
   meaningful-node budget so small model-checked states hash in full. *)
let digest t = Hashtbl.hash_param 1000 1000 (view t)
