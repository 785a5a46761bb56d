(* Benchmark entry point: runs one workload and prints two JSON lines,
   a report (provenance, gates, percentile sample counts, histogram
   buckets, ladder rungs) and, last, the result line.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spawn-time T]

   [--spawn-time] is the wall-clock instant (Unix seconds) at which the
   caller started this process, so set-up time covers process start. *)

open Perfbench
module W = Workloads
module J = Schema

let workloads = [ "live-commit"; "live-lease-read" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1 [--spawn-time T]");
  exit 2

let () =
  let t_start = Unix.gettimeofday () in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spawned = ref t_start in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spawn-time" :: v :: rest -> spawned := float_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  let traced = !trace = 1 in
  let r = W.create () in
  let t_first = Unix.gettimeofday () in
  (match !workload with
  | "live-commit" ->
    W.live_commit r ~seed:!seed ~seconds:!seconds;
    (* The traced run also measures every layer no workload times end to
       end: the ladder, the simulator and the model checker. *)
    if traced then begin
      W.ladder r ~seed:!seed;
      W.sim_sweep r ~seed:!seed;
      W.explore_1paxos r ~seed:!seed
    end
  | _ -> W.live_lease_read r ~seed:!seed ~seconds:!seconds);
  (* Set-up: process start to the first timed call, plus the median of
     the per-repetition set-up (spawn, join, audit) around the timed
     work. *)
  W.set r "setup_s" ((t_first -. !spawned) +. W.median r.W.setups);
  W.set r "peak_rss_mb" (W.peak_rss_mb ());
  let metrics, unset = J.metrics_json ~trace:traced r.W.values in
  let gates = List.rev r.W.gates in
  let correct = r.W.failed = 0 && List.for_all snd gates in
  let report =
    J.Obj
      ([
         ( "provenance",
           J.Obj
             [
               ("commit", J.Null);
               ("nproc", J.Int (Domain.recommended_domain_count ()));
               ("ocaml_version", J.Str Sys.ocaml_version);
               ("workload", J.Str !workload);
               ("seed", J.Int !seed);
               ("seconds", J.Num !seconds);
               ("trace", J.Int !trace);
             ] );
         ( "gates",
           J.List (List.map (fun (name, ok) -> J.Obj [ ("gate", J.Str name); ("ok", J.Bool ok) ]) gates) );
         ("per_repetition_setup_s", J.List (List.rev_map (fun s -> J.Num s) r.W.setups));
         ("not_exercised", J.List (List.map (fun n -> J.Str n) unset));
       ]
      @ List.rev r.W.report)
  in
  print_endline (J.to_string (J.Obj [ ("report", report) ]));
  print_endline
    (J.result_line ~correct ~attempted:(max 1 r.W.attempted) ~failed:r.W.failed metrics)
