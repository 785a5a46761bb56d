module Machine = Ci_machine.Machine
module Sim = Ci_engine.Sim
module Rng = Ci_engine.Rng

(* Compile a fault schedule onto a simulated machine.

   Mechanism/orchestration split: this module owns everything that is
   machine-level — link filters (drop/duplicate coin flips from the
   schedule's own seeded stream, so fault randomness never perturbs the
   machine's stream), extra link delays, slow-core windows, and the
   schedule_at timeline of crash/pause transitions. Node-level
   orchestration (capturing durable state, silencing a dead
   incarnation, calling the protocol's recover, buffering a paused
   node's input) needs the runner's view of the replicas, so it arrives
   here as four callbacks. *)

let install machine ~nemesis ~crash ~restart ~pause ~resume =
  if not (Ci_faults.is_empty nemesis) then begin
    let sim = Machine.sim machine in
    (* Link rules: one filter closure per ordered pair, evaluating every
       window for that pair against the delivery instant. Drop wins over
       duplicate when both windows are open (a lossy link can't also
       double-deliver the message it lost). *)
    let rng = Rng.create ~seed:nemesis.Ci_faults.seed in
    let by_pair = Hashtbl.create 16 in
    let delays = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let key = (r.Ci_faults.l_src, r.Ci_faults.l_dst) in
        match r.Ci_faults.l_kind with
        | Ci_faults.L_delay extra ->
          let prev = Option.value (Hashtbl.find_opt delays key) ~default:[] in
          Hashtbl.replace delays key ((r.l_from, r.l_until, extra) :: prev)
        | Ci_faults.L_drop _ | Ci_faults.L_dup _ ->
          let prev = Option.value (Hashtbl.find_opt by_pair key) ~default:[] in
          Hashtbl.replace by_pair key (r :: prev))
      (Ci_faults.link_rules nemesis);
    Hashtbl.iter
      (fun (src, dst) rules ->
        let rules = List.rev rules in
        let filter ~now =
          let open Ci_faults in
          let in_window r = now >= r.l_from && now < r.l_until in
          let drop_p =
            List.fold_left
              (fun acc r ->
                match r.l_kind with
                | L_drop p when in_window r -> Float.max acc p
                | _ -> acc)
              0. rules
          and dup_p =
            List.fold_left
              (fun acc r ->
                match r.l_kind with
                | L_dup p when in_window r -> Float.max acc p
                | _ -> acc)
              0. rules
          in
          (* p = 1 draws nothing: partitions stay deterministic. *)
          if drop_p >= 1. then Machine.Drop
          else if drop_p > 0. && Rng.chance rng drop_p then Machine.Drop
          else if dup_p >= 1. then Machine.Duplicate
          else if dup_p > 0. && Rng.chance rng dup_p then Machine.Duplicate
          else Machine.Deliver
        in
        Machine.set_link_filter machine ~src ~dst (Some filter))
      by_pair;
    Hashtbl.iter
      (fun (src, dst) windows ->
        let windows = List.rev windows in
        let delay_of now =
          List.fold_left
            (fun acc (from_, until_, extra) ->
              if now >= from_ && now < until_ then acc + extra else acc)
            0 windows
        in
        Machine.set_link_delay machine ~src ~dst (Some delay_of))
      delays;
    (* Slow cores reuse the existing contention mechanism. *)
    List.iter
      (fun s ->
        Machine.slow_core machine ~core:s.Ci_faults.s_core
          ~from_:s.Ci_faults.s_from ~until_:s.Ci_faults.s_until
          ~factor:s.Ci_faults.s_factor)
      (Ci_faults.slows nemesis);
    (* Crash / pause timelines. *)
    List.iter
      (fun c ->
        let node = c.Ci_faults.c_node in
        Sim.schedule_at sim ~time:c.Ci_faults.c_at (fun () -> crash ~node);
        match c.Ci_faults.c_restart with
        | None -> ()
        | Some at -> Sim.schedule_at sim ~time:at (fun () -> restart ~node))
      (Ci_faults.crashes nemesis);
    List.iter
      (fun p ->
        let node = p.Ci_faults.p_node in
        Sim.schedule_at sim ~time:p.Ci_faults.p_from (fun () -> pause ~node);
        Sim.schedule_at sim ~time:p.Ci_faults.p_until (fun () -> resume ~node))
      (Ci_faults.pauses nemesis)
  end
