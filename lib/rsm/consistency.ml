type 'v replica_view = {
  replica : int;
  decisions : (int * 'v) list;
  fingerprint : int;
  executed_prefix : int;
}

type 'v replica_log = {
  log_replica : int;
  iter_decisions : (int -> 'v -> unit) -> unit;
  log_fingerprint : int;
  log_executed_prefix : int;
}

let log_of_view v =
  {
    log_replica = v.replica;
    iter_decisions = (fun f -> List.iter (fun (inst, x) -> f inst x) v.decisions);
    log_fingerprint = v.fingerprint;
    log_executed_prefix = v.executed_prefix;
  }

type violation =
  | Disagreement of { inst : int; a : int; b : int }
  | Unproposed of { replica : int; inst : int }
  | Fingerprint_mismatch of { a : int; b : int; prefix : int }
  | Lost_ack of { client : int; req_id : int }

type report = {
  violations : violation list;
  checked_instances : int;
  checked_replicas : int;
}

let ok r = r.violations = []

(* One pass per replica log. The four properties' violations are
   collected separately and reported in property order, each in
   log-then-instance order. *)
let check_logs ~equal ~proposed ~iter_acked ~key_of logs =
  (* Agreement: the first decider of an instance sets its reference.
     Whether a reference was proposed is remembered with it: a value
     equal to its reference shares the verdict. *)
  let owner = Dense_map.create () and refv = Dense_map.create () in
  let ref_proposed = Dense_map.create () in
  (* Learned request identities, for session integrity. A value equal
     to its instance's reference has the reference's identity, so only
     references and disagreeing values are keyed. *)
  let learned = Req_map.create () in
  let learn v =
    let client, req_id = key_of v in
    Req_map.replace learned ~client ~req_id ()
  in
  let by_prefix = Hashtbl.create 16 in
  let disagreements = ref [] and unproposed = ref [] and diverged = ref [] in
  List.iter
    (fun log ->
      let replica = log.log_replica in
      log.iter_decisions (fun inst v ->
          let was_proposed =
            if not (Dense_map.mem owner inst) then begin
              Dense_map.replace owner inst replica;
              Dense_map.replace refv inst v;
              Dense_map.replace ref_proposed inst (proposed v);
              learn v;
              Dense_map.get ref_proposed inst
            end
            else if equal (Dense_map.get refv inst) v then Dense_map.get ref_proposed inst
            else begin
              disagreements :=
                Disagreement { inst; a = Dense_map.get owner inst; b = replica }
                :: !disagreements;
              learn v;
              proposed v
            end
          in
          if not was_proposed then unproposed := Unproposed { replica; inst } :: !unproposed);
      (* State convergence among replicas with equal executed prefixes. *)
      let prefix = log.log_executed_prefix in
      match Hashtbl.find_opt by_prefix prefix with
      | None -> Hashtbl.add by_prefix prefix (replica, log.log_fingerprint)
      | Some (other, fingerprint) ->
        if fingerprint <> log.log_fingerprint then
          diverged := Fingerprint_mismatch { a = other; b = replica; prefix } :: !diverged)
    logs;
  (* Session integrity: every acked request was learned somewhere. *)
  let lost = ref [] in
  iter_acked (fun client req_id ->
      if not (Req_map.mem learned ~client ~req_id) then
        lost := Lost_ack { client; req_id } :: !lost);
  {
    violations =
      List.rev_append !disagreements
        (List.rev_append !unproposed (List.rev_append !diverged (List.rev !lost)));
    checked_instances = Dense_map.length owner;
    checked_replicas = List.length logs;
  }

let check ~equal ~proposed ~acked ~key_of views =
  check_logs ~equal ~proposed
    ~iter_acked:(fun f -> List.iter (fun (client, req_id) -> f client req_id) acked)
    ~key_of (List.map log_of_view views)

let pp_violation fmt = function
  | Disagreement { inst; a; b } ->
    Format.fprintf fmt "disagreement at instance %d between replicas %d and %d"
      inst a b
  | Unproposed { replica; inst } ->
    Format.fprintf fmt "replica %d learned an unproposed value at instance %d"
      replica inst
  | Fingerprint_mismatch { a; b; prefix } ->
    Format.fprintf fmt
      "replicas %d and %d diverge in state after executing %d instances" a b
      prefix
  | Lost_ack { client; req_id } ->
    Format.fprintf fmt "client %d request %d was acknowledged but never learned"
      client req_id

let pp fmt r =
  if ok r then
    Format.fprintf fmt "consistent (%d instances across %d replicas)"
      r.checked_instances r.checked_replicas
  else begin
    Format.fprintf fmt "%d violation(s):@." (List.length r.violations);
    List.iter (fun v -> Format.fprintf fmt "  - %a@." pp_violation v) r.violations
  end
