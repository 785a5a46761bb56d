(* CSV quoting: labels are machine-generated but may contain spaces or
   commas (e.g. "1Paxos - 0% read"); quote defensively. *)
let quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let buf_lines header rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b row;
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let series_csv (series : Experiments.series list) =
  buf_lines "label,x,throughput_ops,latency_us,leader_util"
    (List.concat_map
       (fun (s : Experiments.series) ->
         List.map
           (fun (p : Experiments.point) ->
             Printf.sprintf "%s,%d,%.1f,%.2f,%.3f" (quote s.Experiments.label)
               p.Experiments.x p.Experiments.throughput p.Experiments.latency_us
               p.Experiments.leader_util)
           s.Experiments.points)
       series)

let bars_csv (bars : Experiments.bar list) =
  buf_lines "label,clients,throughput_ops"
    (List.map
       (fun (b : Experiments.bar) ->
         Printf.sprintf "%s,%d,%.1f" (quote b.Experiments.label)
           b.Experiments.clients b.Experiments.throughput)
       bars)

let timelines_csv (ts : Experiments.timeline list) =
  buf_lines "label,t_ms,ops_per_sec"
    (List.concat_map
       (fun (t : Experiments.timeline) ->
         Array.to_list
           (Array.mapi
              (fun i rate ->
                Printf.sprintf "%s,%.0f,%.1f" (quote t.Experiments.label)
                  (float_of_int i *. t.Experiments.bucket_ms)
                  rate)
              t.Experiments.rates))
       ts)

let netchar_csv (rows : Experiments.netchar_row list) =
  buf_lines "setting,trans_us,ping_us,prop_us,ratio"
    (List.map
       (fun (r : Experiments.netchar_row) ->
         Printf.sprintf "%s,%.3f,%.3f,%.3f,%.4f" (quote r.Experiments.setting)
           r.Experiments.trans_us r.Experiments.ping_us r.Experiments.prop_us
           r.Experiments.ratio)
       rows)

let latency_csv (rows : Experiments.latency_row list) =
  buf_lines "protocol,latency_us,paper_latency_us,throughput_1c,leader_util"
    (List.map
       (fun (r : Experiments.latency_row) ->
         Printf.sprintf "%s,%.2f,%.2f,%.1f,%.3f" (quote r.Experiments.protocol)
           r.Experiments.latency_us r.Experiments.paper_latency_us
           r.Experiments.throughput_1c r.Experiments.leader_util)
       rows)

let load_csv (rows : Experiments.load_row list) =
  buf_lines
    "label,offered_ops,achieved_ops,p50_us,p99_us,p999_us,service_p99_us,lease_reads,knee"
    (List.map
       (fun (r : Experiments.load_row) ->
         Printf.sprintf "%s,%.1f,%.1f,%.2f,%.2f,%.2f,%.2f,%d,%d"
           (quote r.Experiments.l_label) r.Experiments.l_offered
           r.Experiments.l_achieved r.Experiments.l_p50_us r.Experiments.l_p99_us
           r.Experiments.l_p999_us r.Experiments.l_service_p99_us
           r.Experiments.l_lease_reads
           (if r.Experiments.l_knee then 1 else 0))
       rows)

let plot_preamble ~title =
  Printf.sprintf
    "set datafile separator ','\n\
     set title '%s'\n\
     set key outside right\n\
     set grid\n"
    title

let gnuplot_series ~title ~xlabel ~csv (series : Experiments.series list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (plot_preamble ~title);
  Buffer.add_string b (Printf.sprintf "set xlabel '%s'\n" xlabel);
  Buffer.add_string b "set ylabel 'throughput (op/s)'\n";
  Buffer.add_string b "plot \\\n";
  let plots =
    List.map
      (fun (s : Experiments.series) ->
        Printf.sprintf
          "  '< grep \"^%s,\" %s' using 2:3 with linespoints title '%s'"
          s.Experiments.label csv s.Experiments.label)
      series
  in
  Buffer.add_string b (String.concat ", \\\n" plots);
  Buffer.add_char b '\n';
  Buffer.contents b

let gnuplot_timelines ~title ~csv (ts : Experiments.timeline list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (plot_preamble ~title);
  Buffer.add_string b "set xlabel 'time (ms)'\nset ylabel 'commits (op/s)'\n";
  Buffer.add_string b "plot \\\n";
  let plots =
    List.map
      (fun (t : Experiments.timeline) ->
        Printf.sprintf "  '< grep \"^%s,\" %s' using 2:3 with steps title '%s'"
          t.Experiments.label csv t.Experiments.label)
      ts
  in
  Buffer.add_string b (String.concat ", \\\n" plots);
  Buffer.add_char b '\n';
  Buffer.contents b

let write_file ~dir ~name contents =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  path
