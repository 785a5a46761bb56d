module Command = Ci_rsm.Command
module Consistency = Ci_rsm.Consistency
module Atomicity = Ci_rsm.Atomicity

let merge reports =
  {
    Consistency.violations =
      List.concat_map (fun (r : Consistency.report) -> r.Consistency.violations) reports;
    checked_instances =
      List.fold_left
        (fun a (r : Consistency.report) -> a + r.Consistency.checked_instances)
        0 reports;
    checked_replicas =
      List.fold_left
        (fun a (r : Consistency.report) -> a + r.Consistency.checked_replicas)
        0 reports;
  }

let check ~issued ~acked ~logs ~txns =
  let groups = List.length logs in
  let proposed (v : Wire.value) =
    Mencius.is_skip_value v
    ||
    match issued ~client:v.Wire.client ~req_id:v.Wire.req_id with
    | Some cmd -> Command.equal cmd v.Wire.cmd
    | None -> false
  in
  let list_of iter =
    let l = ref [] in
    iter (fun client req_id -> l := (client, req_id) :: !l);
    List.rev !l
  in
  let iter_list l f = List.iter (fun (client, req_id) -> f client req_id) l in
  let issued_key (client, req_id) = issued ~client ~req_id in
  (* One group checks every ack as it comes. Several split the acks:
     a cross-shard write is committed under its router's identity and
     left to the atomicity check; a single-shard one belongs to the
     group owning its key. *)
  let cross_acked, acked_of =
    if groups = 1 then ([], fun _ -> acked)
    else
      let cross, single =
        List.partition
          (fun key ->
            match issued_key key with
            | Some cmd -> List.length (Shard.groups_of ~groups cmd) > 1
            | None -> false)
          (list_of acked)
      in
      ( cross,
        fun g ->
          iter_list
            (List.filter
               (fun key ->
                 match issued_key key with
                 | Some cmd -> Shard.group_of_cmd ~groups cmd = g
                 | None -> false)
               single) )
  in
  let consistency =
    merge
      (List.mapi
         (fun g group_logs ->
           Consistency.check_logs ~equal:Wire.value_equal ~proposed ~iter_acked:(acked_of g)
             ~key_of:Wire.value_key group_logs)
         logs)
  in
  let atomicity =
    if groups = 1 then None
    else
      let decided =
        List.mapi
          (fun g group_logs ->
            let cmds = ref [] in
            List.iter
              (fun (log : Wire.value Consistency.replica_log) ->
                log.Consistency.iter_decisions (fun _ (v : Wire.value) ->
                    cmds := v.Wire.cmd :: !cmds))
              group_logs;
            (g, List.rev !cmds))
          logs
      in
      Some (Atomicity.check ~decided ~txns ~acked:cross_acked)
  in
  (consistency, atomicity)
