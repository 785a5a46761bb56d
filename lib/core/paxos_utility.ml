module Node_env = Ci_engine.Node_env
module Op_log = Ci_rsm.Op_log
module Rng = Ci_engine.Rng

type acc_slot = {
  mutable promised : Pn.t;
  mutable accepted : (Pn.t * Wire.config_entry) option;
}

type attempt = {
  att_id : int;
  cseq : int;
  pn : Pn.t;
  mine : Wire.config_entry;
  pushing : Wire.config_entry; (* phase-2 entry: [mine] or an adopted one *)
  mutable phase : [ `Prepare | `Accept ];
  mutable promise_count : int;
  mutable best : (Pn.t * Wire.config_entry) option;
  mutable ack_count : int;
  mutable highest_seen : Pn.t; (* from rejects/nacks, to jump rounds *)
  k : ok:bool -> unit;
}

type read_op = { mutable reply_count : int; k : unit -> unit }

type t = {
  env : Wire.t Node_env.t;
  self : int;
  peers : int array;
  majority : int;
  timeout : Ci_engine.Sim_time.t;
  rng : Rng.t;
  on_entry : cseq:int -> Wire.config_entry -> unit;
  log : Wire.config_entry Op_log.t;
  acc : (int, acc_slot) Hashtbl.t;
  mutable applied : int; (* first slot on_entry has not fired for *)
  mutable round : int; (* proposal round counter *)
  mutable att : attempt option;
  mutable next_att_id : int;
  mutable retry_streak : int; (* consecutive timed-out attempts, for backoff *)
  reads : (int, read_op) Hashtbl.t;
  mutable next_token : int;
  mutable lead : int option;
  mutable acct : int option;
}

let send t dst msg = t.env.Node_env.send ~dst msg
let broadcast t msg = Array.iter (fun dst -> send t dst msg) t.peers

(* Fire [on_entry] for every newly contiguous chosen entry. *)
let apply_ready t =
  let next =
    Op_log.iter_prefix t.log ~from_:t.applied (fun cseq entry ->
        (match entry with
         | Wire.Leader_change { leader; acceptor } ->
           t.lead <- Some leader;
           t.acct <- Some acceptor
         | Wire.Acceptor_change { acceptor; _ } -> t.acct <- Some acceptor
         | Wire.Epoch_change { actives } ->
           t.lead <- (match actives with l :: _ -> Some l | [] -> t.lead));
        t.on_entry ~cseq entry)
  in
  t.applied <- next

(* Resolve the in-flight attempt, if any, against a slot now known to be
   decided. *)
let resolve_attempts t =
  match t.att with
  | None -> ()
  | Some a ->
    (match Op_log.get t.log ~inst:a.cseq with
     | None -> ()
     | Some chosen ->
       t.att <- None;
       t.retry_streak <- 0;
       a.k ~ok:(Wire.config_entry_equal chosen a.mine))

let record_chosen t ~cseq entry =
  (match Op_log.decide t.log ~inst:cseq entry with
   | `New -> apply_ready t
   | `Duplicate -> ()
   | `Conflict _ ->
     (* A safety violation in PaxosUtility itself; surfaced by tests via
        the log's conflict list. *)
     ());
  resolve_attempts t

let absorb_suffix t suffix =
  List.iter (fun (cseq, entry) -> record_chosen t ~cseq entry) suffix

let fresh_pn t =
  t.round <- t.round + 1;
  Pn.make ~round:t.round ~owner:t.self

(* Exponential backoff with jitter: duelling proposers desynchronize,
   and slow networks stop retrying before answers can possibly arrive. *)
let backoff t =
  let scale = min 32 (1 lsl min 5 t.retry_streak) in
  let base = t.timeout * scale in
  base + Rng.int t.rng (max 1 (base / 2))

(* --- proposer ---------------------------------------------------------- *)

let rec start_attempt t mine k =
  let cseq = Op_log.first_gap t.log in
  let pn = fresh_pn t in
  let a =
    {
      att_id = t.next_att_id;
      cseq;
      pn;
      mine;
      pushing = mine;
      phase = `Prepare;
      promise_count = 0;
      best = None;
      ack_count = 0;
      highest_seen = Pn.bottom;
      k;
    }
  in
  t.next_att_id <- t.next_att_id + 1;
  t.att <- Some a;
  arm_retry t a;
  broadcast t (Wire.Pu_prepare { cseq; pn })

(* Retry with a higher proposal number unless the attempt completed or
   was superseded. *)
and arm_retry t a =
  t.env.Node_env.after ~delay:(backoff t) (fun () ->
      match t.att with
      | Some cur when cur.att_id = a.att_id ->
        t.att <- None;
        t.retry_streak <- t.retry_streak + 1;
        if Pn.(a.highest_seen > a.pn) then t.round <- max t.round a.highest_seen.Pn.round;
        start_attempt t a.mine a.k
      | Some _ | None -> ())

let enter_accept_phase t a =
  let pushing =
    match a.best with Some (_, entry) -> entry | None -> a.mine
  in
  let a' = { a with phase = `Accept; pushing } in
  t.att <- Some a';
  broadcast t (Wire.Pu_accept { cseq = a'.cseq; pn = a'.pn; entry = pushing })

let propose t entry k =
  if t.att <> None then
    invalid_arg "Paxos_utility.propose: a proposal is already in flight";
  start_attempt t entry k

let proposing t = t.att <> None

(* --- reads (majority sync) -------------------------------------------- *)

let sync t k =
  let token = t.next_token in
  t.next_token <- t.next_token + 1;
  Hashtbl.replace t.reads token { reply_count = 0; k };
  let from_ = Op_log.first_gap t.log in
  broadcast t (Wire.Pu_read { token; from_ })

(* --- message handling -------------------------------------------------- *)

let acc_slot t cseq =
  match Hashtbl.find_opt t.acc cseq with
  | Some s -> s
  | None ->
    let s = { promised = Pn.bottom; accepted = None } in
    Hashtbl.add t.acc cseq s;
    s

let suffix_from t from_ = Op_log.to_list_from t.log ~from_

let with_attempt t ~cseq ~pn f =
  match t.att with
  | Some a when a.cseq = cseq && Pn.equal a.pn pn -> f a
  | Some _ | None -> ()

let handle t ~src msg =
  match msg with
  | Wire.Pu_prepare { cseq; pn } ->
    (if Op_log.is_decided t.log ~inst:cseq then
       send t src (Wire.Pu_reject { cseq; pn; chosen_suffix = suffix_from t cseq })
     else
       let s = acc_slot t cseq in
       if Pn.(pn > s.promised) then begin
         s.promised <- pn;
         send t src
           (Wire.Pu_promise
              { cseq; pn; accepted = s.accepted; chosen_suffix = suffix_from t cseq })
       end
       else
         send t src
           (Wire.Pu_reject
              { cseq; pn = s.promised; chosen_suffix = suffix_from t cseq }));
    true
  | Wire.Pu_promise { cseq; pn; accepted; chosen_suffix } ->
    absorb_suffix t chosen_suffix;
    with_attempt t ~cseq ~pn (fun a ->
        if a.phase = `Prepare then begin
          a.promise_count <- a.promise_count + 1;
          (match accepted with
           | Some (apn, entry) ->
             (match a.best with
              | Some (bpn, _) when Pn.(bpn >= apn) -> ()
              | Some _ | None -> a.best <- Some (apn, entry))
           | None -> ());
          if a.promise_count >= t.majority then enter_accept_phase t a
        end);
    true
  | Wire.Pu_reject { cseq; pn; chosen_suffix } ->
    absorb_suffix t chosen_suffix;
    (* [resolve_attempts] inside [absorb_suffix] handles a decided slot;
       otherwise remember the higher number for the next round. *)
    (match t.att with
     | Some a when a.cseq = cseq -> a.highest_seen <- Pn.max a.highest_seen pn
     | Some _ | None -> ());
    true
  | Wire.Pu_accept { cseq; pn; entry } ->
    (if Op_log.is_decided t.log ~inst:cseq then
       (* Already decided: re-broadcasting the learn covers lost-learn
          retries without re-running the protocol. *)
       match Op_log.get t.log ~inst:cseq with
       | Some chosen -> send t src (Wire.Pu_learn { cseq; entry = chosen })
       | None -> ()
     else
       let s = acc_slot t cseq in
       if Pn.(pn >= s.promised) then begin
         s.promised <- pn;
         s.accepted <- Some (pn, entry);
         send t src (Wire.Pu_accepted { cseq; pn })
       end
       else send t src (Wire.Pu_nack { cseq; pn = s.promised }));
    true
  | Wire.Pu_accepted { cseq; pn } ->
    with_attempt t ~cseq ~pn (fun a ->
        if a.phase = `Accept then begin
          a.ack_count <- a.ack_count + 1;
          if a.ack_count >= t.majority then begin
            broadcast t (Wire.Pu_learn { cseq; entry = a.pushing });
            record_chosen t ~cseq a.pushing
          end
        end);
    true
  | Wire.Pu_nack { cseq; pn } ->
    (match t.att with
     | Some a when a.cseq = cseq -> a.highest_seen <- Pn.max a.highest_seen pn
     | Some _ | None -> ());
    true
  | Wire.Pu_learn { cseq; entry } ->
    record_chosen t ~cseq entry;
    true
  | Wire.Pu_read { token; from_ } ->
    send t src (Wire.Pu_read_reply { token; chosen_suffix = suffix_from t from_ });
    true
  | Wire.Pu_read_reply { token; chosen_suffix } ->
    absorb_suffix t chosen_suffix;
    (match Hashtbl.find_opt t.reads token with
     | Some op ->
       op.reply_count <- op.reply_count + 1;
       if op.reply_count >= t.majority then begin
         Hashtbl.remove t.reads token;
         op.k ()
       end
     | None -> ());
    true
  | Wire.Request _ | Wire.Reply _ | Wire.Forward _ | Wire.Op_prepare_request _
  | Wire.Op_prepare_response _ | Wire.Op_abandon _ | Wire.Op_accept_request _
  | Wire.Op_learn _ | Wire.Ls_req _ | Wire.Ls_reply _ | Wire.Mp_prepare _
  | Wire.Mp_promise _ | Wire.Mp_reject _ | Wire.Mp_accept _ | Wire.Mp_learn _ | Wire.Op_accept_batch _ | Wire.Op_learn_batch _ | Wire.Mp_accept_batch _ | Wire.Mp_learn_batch _
  | Wire.Tp_prepare _ | Wire.Tp_ack _ | Wire.Tp_commit _ | Wire.Tp_commit_ack _
  | Wire.Tp_rollback _ | Wire.Tp_nack _ | Wire.Bp_prepare _ | Wire.Bp_promise _ | Wire.Bp_reject _ | Wire.Bp_accept _ | Wire.Bp_learn _ | Wire.Mn_accept _ | Wire.Mn_learn _ | Wire.Cp_accept _ | Wire.Cp_accepted _ | Wire.Cp_learn _ | Wire.Cp_state _ | Wire.Le_renew _ | Wire.Le_grant _ ->
    false

let names_other_leader ~leader = function
  | Wire.Leader_change { leader = l; _ } -> l <> leader
  | Wire.Acceptor_change _ -> false
  | Wire.Epoch_change { actives } ->
    (match actives with l :: _ -> l <> leader | [] -> false)

let helped_elect_other t ~from_cseq ~leader =
  Hashtbl.fold
    (fun cseq s acc ->
      acc
      || cseq >= from_cseq
         &&
         match s.accepted with
         | Some (_, e) -> names_other_leader ~leader e
         | None -> false)
    t.acc false
  || List.exists
       (fun (cseq, e) -> cseq >= from_cseq && names_other_leader ~leader e)
       (Op_log.to_list t.log)

let entries t = Op_log.to_list t.log
let next_cseq t = Op_log.first_gap t.log

(* Structural fingerprint for the explorer (see {!Replica_core.digest}).
   Hashtables fold to sorted lists so iteration order cannot leak in;
   the in-flight attempt contributes its pure-data fields only. *)
let digest t =
  let acc =
    Hashtbl.fold (fun c s l -> (c, s.promised, s.accepted) :: l) t.acc []
    |> List.sort compare
  in
  let att =
    match t.att with
    | None -> None
    | Some a ->
      Some
        ( a.cseq,
          a.pn,
          a.mine,
          a.pushing,
          (a.phase, a.promise_count, a.best, a.ack_count, a.highest_seen) )
  in
  Hashtbl.hash_param 1000 1000
    ( Op_log.to_list t.log,
      acc,
      att,
      (t.applied, t.round, t.retry_streak, Hashtbl.length t.reads),
      (t.lead, t.acct) )
let applied_upto t = t.applied
let current_leader t = t.lead
let current_acceptor t = t.acct

let create ~env ~peers ~timeout ~seed ~on_entry =
  let t =
    {
      env;
      self = env.Node_env.id;
      peers;
      majority = (Array.length peers / 2) + 1;
      timeout;
      rng = Rng.split env.Node_env.rng;
      on_entry;
      log = Op_log.create ~equal:Wire.config_entry_equal ();
      acc = Hashtbl.create 16;
      applied = 0;
      round = 0;
      att = None;
      next_att_id = 0;
      retry_streak = 0;
      reads = Hashtbl.create 8;
      next_token = 0;
      lead = None;
      acct = None;
    }
  in
  List.iteri
    (fun i entry -> ignore (Op_log.decide t.log ~inst:i entry))
    seed;
  apply_ready t;
  t

(* ----- crash-recovery ---------------------------------------------------- *)

(* The durable registers of a Paxos acceptor/learner: what a real
   implementation fsyncs before answering. Everything else (in-flight
   attempt, retry streak, pending reads) is volatile and is legitimately
   lost in a crash — the protocol re-derives it. *)
type stable = {
  st_entries : (int * Wire.config_entry) list;
  st_acc : (int * Pn.t * (Pn.t * Wire.config_entry) option) list;
  st_round : int;
}

let stable t =
  {
    st_entries = Op_log.to_list t.log;
    st_acc =
      Hashtbl.fold
        (fun cseq s acc -> (cseq, s.promised, s.accepted) :: acc)
        t.acc [];
    st_round = t.round;
  }

let recover ~env ~peers ~timeout ~stable:st ~on_entry =
  let t = create ~env ~peers ~timeout ~seed:[] ~on_entry in
  List.iter
    (fun (cseq, entry) -> ignore (Op_log.decide t.log ~inst:cseq entry))
    st.st_entries;
  apply_ready t;
  List.iter
    (fun (cseq, promised, accepted) ->
      Hashtbl.replace t.acc cseq { promised; accepted })
    st.st_acc;
  (* The round counter must never regress: reusing a proposal number
     with a different entry would let two values share one (cseq, pn). *)
  t.round <- st.st_round;
  t
