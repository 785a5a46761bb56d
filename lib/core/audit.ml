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

let check ~issued ~acked ~views ~txns =
  let groups = List.length views in
  let proposed (v : Wire.value) =
    Mencius.is_skip_value v
    ||
    match issued (v.Wire.client, v.Wire.req_id) with
    | Some cmd -> Command.equal cmd v.Wire.cmd
    | None -> false
  in
  let shards_of key =
    match issued key with
    | Some cmd -> Shard.groups_of ~groups cmd
    | None -> []
  in
  let cross_acked, single_acked =
    if groups = 1 then ([], acked)
    else List.partition (fun key -> List.length (shards_of key) > 1) acked
  in
  let acked_of g =
    if groups = 1 then single_acked
    else
      List.filter
        (fun key ->
          match issued key with
          | Some cmd -> Shard.group_of_cmd ~groups cmd = g
          | None -> false)
        single_acked
  in
  let consistency =
    merge
      (List.mapi
         (fun g group_views ->
           Consistency.check ~equal:Wire.value_equal ~proposed ~acked:(acked_of g)
             ~key_of:Wire.value_key group_views)
         views)
  in
  let atomicity =
    if groups = 1 then None
    else
      let decided =
        List.mapi
          (fun g group_views ->
            ( g,
              List.concat_map
                (fun (rv : Wire.value Consistency.replica_view) ->
                  List.map (fun (_, (v : Wire.value)) -> v.Wire.cmd) rv.Consistency.decisions)
                group_views ))
          views
      in
      Some (Atomicity.check ~decided ~txns ~acked:cross_acked)
  in
  (consistency, atomicity)
