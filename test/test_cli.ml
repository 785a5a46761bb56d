(* The command line's contract, checked on the built binary (shelling
   out, like the socket smoke test): a spec the library rejects is exit
   1 with one line on stderr, and each deployment command keeps its set
   of long options. *)

let with_exe f =
  match
    List.find_opt Sys.file_exists
      [ "../bin/consensus_sim.exe"; "_build/default/bin/consensus_sim.exe" ]
  with
  | None -> print_string "consensus_sim.exe not found; skipping\n"
  | Some exe -> f exe

(* Exit code, stdout and stderr of [consensus_sim args]. *)
let run_cli exe args =
  let out = Filename.temp_file "cli" ".out" and err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe) args (Filename.quote out)
         (Filename.quote err))
  in
  let read path =
    let s = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    s
  in
  let out = read out in
  (code, out, read err)

(* None of these starts a run: the library rejects each spec first. *)
let test_invalid_specs () =
  with_exe @@ fun exe ->
  List.iter
    (fun args ->
      let code, _, err = run_cli exe args in
      Alcotest.(check int) (args ^ ": exit") 1 code;
      Alcotest.(check int) (args ^ ": stderr lines") 1
        (List.length (List.filter (( <> ) "") (String.split_on_char '\n' err))))
    [
      "run --replicas 60";
      "run -p 2pc --groups 2";
      "load --replicas 60 -d 5";
      "nemesis";
      "live -p 2pc";
    ]

(* The long options named on the option lines of [--help=plain] output
   ("-c VAL, --clients=VAL (absent=5)"), which cmdliner indents by seven
   spaces. *)
let long_options help =
  let name w =
    let rec stop i =
      if i < String.length w && (w.[i] = '-' || (w.[i] >= 'a' && w.[i] <= 'z')) then
        stop (i + 1)
      else i
    in
    String.sub w 0 (stop 0)
  in
  String.split_on_char '\n' help
  |> List.filter (String.starts_with ~prefix:"       -")
  |> List.concat_map (fun l -> String.split_on_char ' ' (String.trim l))
  |> List.filter (String.starts_with ~prefix:"--")
  |> List.map name
  |> List.sort_uniq compare

let test_option_sets () =
  with_exe @@ fun exe ->
  List.iter
    (fun (cmd, expected) ->
      let code, help, _ = run_cli exe (cmd ^ " --help=plain") in
      Alcotest.(check int) (cmd ^ " --help exit") 0 code;
      Alcotest.(check (list string))
        (cmd ^ " long options")
        (List.sort compare (List.map (( ^ ) "--") expected))
        (long_options help))
    [
      ( "run",
        [ "batch"; "batch-delay-us"; "clients"; "coalesce"; "colocate-acceptor";
          "cross-shard-ratio"; "duration-ms"; "groups"; "help"; "joint";
          "local-reads"; "metrics-out"; "net"; "pipeline"; "protocol";
          "read-ratio"; "relaxed-reads"; "replicas"; "seed"; "slow-core";
          "think-us"; "timeline"; "timeout-us"; "topology"; "trace-format";
          "trace-out"; "version"; "warmup-ms" ] );
      ( "live",
        [ "clients"; "cross-shard-ratio"; "drain-s"; "duration-s"; "groups";
          "help"; "metrics-out"; "protocol"; "queue-slots"; "read-ratio";
          "replicas"; "ring-cap"; "seed"; "slot-size"; "think-us"; "timeout-ms";
          "transport"; "version" ] );
      ( "load",
        [ "backend"; "cas"; "clients"; "duration-ms"; "help"; "key-dist";
          "key-space"; "lease-skew-us"; "lease-us"; "poisson"; "population";
          "protocol"; "range-span"; "ranges"; "rate"; "reads"; "replicas";
          "seed"; "sessions"; "version"; "warmup-ms" ] );
      ( "nemesis",
        [ "backend"; "clients"; "crash"; "cross-shard-ratio"; "delay"; "drop";
          "duplicate"; "duration-ms"; "groups"; "help"; "partition"; "pause";
          "protocol"; "replicas"; "scenario"; "seed"; "slow-core"; "version" ] );
    ]

let suite =
  ( "cli",
    [
      Alcotest.test_case "invalid specs exit 1 with one stderr line" `Quick
        test_invalid_specs;
      Alcotest.test_case "deployment commands keep their long options" `Quick
        test_option_sets;
    ] )
