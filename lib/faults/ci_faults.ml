module Sim_time = Ci_engine.Sim_time
module Rng = Ci_engine.Rng

type fault =
  | Crash of { node : int; at : int; down_for : int option }
  | Pause of { node : int; from_ : int; until_ : int }
  | Slow of { core : int; from_ : int; until_ : int; factor : float }
  | Drop of { src : int; dst : int; from_ : int; until_ : int; p : float }
  | Duplicate of { src : int; dst : int; from_ : int; until_ : int; p : float }
  | Delay of { src : int; dst : int; from_ : int; until_ : int; extra : int }
  | Partition of { groups : int list list; from_ : int; until_ : int }

let paper_slowdown = 9.

type t = { seed : int; faults : fault list }

let empty = { seed = 0; faults = [] }
let is_empty t = t.faults = []

let onset = function
  | Crash { at; _ } -> at
  | Pause { from_; _ }
  | Slow { from_; _ }
  | Drop { from_; _ }
  | Duplicate { from_; _ }
  | Delay { from_; _ }
  | Partition { from_; _ } ->
    from_

let first_fault_at t =
  List.fold_left
    (fun acc f ->
      match acc with
      | None -> Some (onset f)
      | Some a -> Some (min a (onset f)))
    None t.faults

(* ----- validation ------------------------------------------------------- *)

let err fmt = Format.kasprintf (fun m -> Error m) fmt

let check_window ~what ~from_ ~until_ =
  if from_ < 0 then err "%s: window start %d is negative" what from_
  else if from_ >= until_ then
    err "%s: empty or inverted window [%d, %d)" what from_ until_
  else Ok ()

let check_node ~what ~n_nodes node =
  if node < 0 || node >= n_nodes then
    err "%s: node %d out of range [0, %d)" what node n_nodes
  else Ok ()

let check_p ~what p =
  if Float.is_nan p || p <= 0. || p > 1. then
    err "%s: probability %g outside (0, 1]" what p
  else Ok ()

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let check_link ~what ~n_nodes ~src ~dst ~from_ ~until_ =
  let* () = check_window ~what ~from_ ~until_ in
  let* () = check_node ~what ~n_nodes src in
  let* () = check_node ~what ~n_nodes dst in
  if src = dst then
    err "%s: src = dst = %d (self-sends never cross a link)" what src
  else Ok ()

let validate_fault ~n_nodes ~n_cores = function
  | Crash { node; at; down_for } ->
    let what = "crash" in
    let* () = check_node ~what ~n_nodes node in
    if at < 0 then err "%s: time %d is negative" what at
    else (
      match down_for with
      | Some d when d <= 0 -> err "%s: down_for %d must be positive" what d
      | _ -> Ok ())
  | Pause { node; from_; until_ } ->
    let what = "pause" in
    let* () = check_node ~what ~n_nodes node in
    check_window ~what ~from_ ~until_
  | Slow { core; from_; until_; factor } ->
    let what = "slow" in
    let* () = check_window ~what ~from_ ~until_ in
    if core < 0 || core >= n_cores then
      err "%s: core %d out of range [0, %d)" what core n_cores
    else if Float.is_nan factor then err "%s: factor is NaN" what
    else if factor < 1. then err "%s: factor %g must be >= 1" what factor
    else Ok ()
  | Drop { src; dst; from_; until_; p } ->
    let what = "drop" in
    let* () = check_link ~what ~n_nodes ~src ~dst ~from_ ~until_ in
    check_p ~what p
  | Duplicate { src; dst; from_; until_; p } ->
    let what = "duplicate" in
    let* () = check_link ~what ~n_nodes ~src ~dst ~from_ ~until_ in
    check_p ~what p
  | Delay { src; dst; from_; until_; extra } ->
    let what = "delay" in
    let* () = check_link ~what ~n_nodes ~src ~dst ~from_ ~until_ in
    if extra <= 0 then err "%s: extra delay %d must be positive" what extra
    else Ok ()
  | Partition { groups; from_; until_ } ->
    let what = "partition" in
    let* () = check_window ~what ~from_ ~until_ in
    if List.length groups < 2 then
      err "%s: needs at least two groups to cut anything" what
    else if List.exists (fun g -> g = []) groups then
      err "%s: empty group" what
    else
      let seen = Hashtbl.create 8 in
      let rec nodes_ok = function
        | [] -> Ok ()
        | n :: rest ->
          let* () = check_node ~what ~n_nodes n in
          if Hashtbl.mem seen n then
            err "%s: node %d appears in more than one group" what n
          else (
            Hashtbl.add seen n ();
            nodes_ok rest)
      in
      nodes_ok (List.concat groups)

let validate ?n_cores ~n_nodes t =
  let n_cores = match n_cores with Some c -> c | None -> n_nodes in
  let rec go = function
    | [] -> Ok ()
    | f :: rest -> ( match validate_fault ~n_nodes ~n_cores f with
      | Ok () -> go rest
      | Error _ as e -> e)
  in
  go t.faults

(* ----- per-backend decompositions --------------------------------------- *)

type link_kind = L_drop of float | L_dup of float | L_delay of int

type link_rule = {
  l_src : int;
  l_dst : int;
  l_from : int;
  l_until : int;
  l_kind : link_kind;
}

(* Ordered pairs of nodes separated by the partition: every (a, b) with
   [a] and [b] in different groups, both directions. Nodes outside all
   groups keep full connectivity (they are not part of the partition). *)
let partition_cuts groups =
  let tagged =
    List.concat (List.mapi (fun gi g -> List.map (fun n -> (n, gi)) g) groups)
  in
  List.concat_map
    (fun (a, ga) ->
      List.filter_map
        (fun (b, gb) -> if ga <> gb then Some (a, b) else None)
        tagged)
    tagged

let link_rules t =
  List.concat_map
    (function
      | Crash _ | Pause _ | Slow _ -> []
      | Drop { src; dst; from_; until_; p } ->
        [ { l_src = src; l_dst = dst; l_from = from_; l_until = until_;
            l_kind = L_drop p } ]
      | Duplicate { src; dst; from_; until_; p } ->
        [ { l_src = src; l_dst = dst; l_from = from_; l_until = until_;
            l_kind = L_dup p } ]
      | Delay { src; dst; from_; until_; extra } ->
        [ { l_src = src; l_dst = dst; l_from = from_; l_until = until_;
            l_kind = L_delay extra } ]
      | Partition { groups; from_; until_ } ->
        List.map
          (fun (src, dst) ->
            { l_src = src; l_dst = dst; l_from = from_; l_until = until_;
              l_kind = L_drop 1. })
          (partition_cuts groups))
    t.faults

type crash_rule = { c_node : int; c_at : int; c_restart : int option }

let crashes t =
  List.filter_map
    (function
      | Crash { node; at; down_for } ->
        Some
          { c_node = node; c_at = at;
            c_restart = Option.map (fun d -> at + d) down_for }
      | _ -> None)
    t.faults

type pause_rule = { p_node : int; p_from : int; p_until : int }

let pauses t =
  List.filter_map
    (function
      | Pause { node; from_; until_ } ->
        Some { p_node = node; p_from = from_; p_until = until_ }
      | _ -> None)
    t.faults

type slow_rule = { s_core : int; s_from : int; s_until : int; s_factor : float }

let slows t =
  List.filter_map
    (function
      | Slow { core; from_; until_; factor } ->
        Some { s_core = core; s_from = from_; s_until = until_; s_factor = factor }
      | _ -> None)
    t.faults

(* ----- seeded random schedules ------------------------------------------ *)

(* Schedules that are adversarial but recoverable: every fault begins
   after [horizon/5] (so the run warms up), at most one node is crashed
   or paused at a time, and every window closes by [4*horizon/5] so the
   system has time to converge again. Used by the qcheck safety grid and
   the CLI's random scenario. *)
let random ~seed ~n_nodes ~horizon =
  let rng = Rng.create ~seed in
  let lo = horizon / 5 and hi = 4 * horizon / 5 in
  let window () =
    let a = Rng.int_in rng lo (hi - 1) in
    let b = Rng.int_in rng (a + 1) hi in
    (a, b)
  in
  let link () =
    let src = Rng.int rng n_nodes in
    let dst = (src + 1 + Rng.int rng (n_nodes - 1)) mod n_nodes in
    (src, dst)
  in
  let n_faults = 1 + Rng.int rng 3 in
  let faults = ref [] in
  let crashed = ref false in
  for _ = 1 to n_faults do
    let f =
      match Rng.int rng 5 with
      | 0 when not !crashed ->
        crashed := true;
        let at = Rng.int_in rng lo ((lo + hi) / 2) in
        let down = Rng.int_in rng (horizon / 20) (horizon / 5) in
        Crash { node = Rng.int rng n_nodes; at; down_for = Some down }
      | 1 when not !crashed ->
        crashed := true;
        let from_, until_ = window () in
        Pause { node = Rng.int rng n_nodes; from_; until_ }
      | 2 ->
        let src, dst = link () and from_, until_ = window () in
        Drop { src; dst; from_; until_; p = 0.05 +. Rng.float rng 0.9 }
      | 3 ->
        let src, dst = link () and from_, until_ = window () in
        Duplicate { src; dst; from_; until_; p = 0.05 +. Rng.float rng 0.9 }
      | _ ->
        let src, dst = link () and from_, until_ = window () in
        let extra = Rng.int_in rng (Sim_time.us 1) (Sim_time.us 200) in
        Delay { src; dst; from_; until_; extra }
    in
    faults := f :: !faults
  done;
  { seed; faults = List.rev !faults }

(* ----- printing --------------------------------------------------------- *)

let pp_fault fmt = function
  | Crash { node; at; down_for } -> (
    match down_for with
    | Some d ->
      Format.fprintf fmt "crash node %d at %a (down %a, then recover)" node
        Sim_time.pp at Sim_time.pp d
    | None -> Format.fprintf fmt "crash node %d at %a (forever)" node Sim_time.pp at)
  | Pause { node; from_; until_ } ->
    Format.fprintf fmt "pause node %d during [%a, %a)" node Sim_time.pp from_
      Sim_time.pp until_
  | Slow { core; from_; until_; factor } ->
    Format.fprintf fmt "slow core %d x%.1f during [%a, %a)" core factor
      Sim_time.pp from_ Sim_time.pp until_
  | Drop { src; dst; from_; until_; p } ->
    Format.fprintf fmt "drop %d->%d p=%.2f during [%a, %a)" src dst p
      Sim_time.pp from_ Sim_time.pp until_
  | Duplicate { src; dst; from_; until_; p } ->
    Format.fprintf fmt "duplicate %d->%d p=%.2f during [%a, %a)" src dst p
      Sim_time.pp from_ Sim_time.pp until_
  | Delay { src; dst; from_; until_; extra } ->
    Format.fprintf fmt "delay %d->%d +%a during [%a, %a)" src dst Sim_time.pp
      extra Sim_time.pp from_ Sim_time.pp until_
  | Partition { groups; from_; until_ } ->
    Format.fprintf fmt "partition {%a} during [%a, %a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt " | ")
         (fun fmt g ->
           Format.pp_print_list
             ~pp_sep:(fun fmt () -> Format.fprintf fmt ",")
             Format.pp_print_int fmt g))
      groups Sim_time.pp from_ Sim_time.pp until_

let pp fmt t =
  if is_empty t then Format.fprintf fmt "no faults"
  else
    Format.fprintf fmt "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fault)
      t.faults
