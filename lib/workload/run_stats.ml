module Dense_map = Ci_rsm.Dense_map

type sample = { intended_at : int; sent_at : int; replied_at : int }

(* Three int columns indexed by completion number: three words per
   completed request instead of a record and a list cell. *)
type t = {
  intended : int Dense_map.t;
  sent : int Dense_map.t;
  replied : int Dense_map.t;
  mutable n : int;
  ts : Ci_stats.Timeseries.t;
}

let create ~bucket =
  {
    intended = Dense_map.create ();
    sent = Dense_map.create ();
    replied = Dense_map.create ();
    n = 0;
    ts = Ci_stats.Timeseries.create ~bucket;
  }

let record t ~intended_at ~sent_at ~replied_at =
  Dense_map.replace t.intended t.n intended_at;
  Dense_map.replace t.sent t.n sent_at;
  Dense_map.replace t.replied t.n replied_at;
  t.n <- t.n + 1;
  Ci_stats.Timeseries.add t.ts ~time:replied_at

let samples t =
  List.init t.n (fun i ->
      {
        intended_at = Dense_map.get t.intended i;
        sent_at = Dense_map.get t.sent i;
        replied_at = Dense_map.get t.replied i;
      })

let timeline t = t.ts
let completed t = t.n

let in_window t ~from_ ~until_ i =
  let r = Dense_map.get t.replied i in
  r >= from_ && r < until_

let completed_in t ~from_ ~until_ =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if in_window t ~from_ ~until_ i then incr c
  done;
  !c

(* [f i] for every sample in the window, newest first. *)
let collect t ~from_ ~until_ f =
  let out = Array.make (completed_in t ~from_ ~until_) 0 in
  let k = ref 0 in
  for i = t.n - 1 downto 0 do
    if in_window t ~from_ ~until_ i then begin
      out.(!k) <- f i;
      incr k
    end
  done;
  out

(* Reported latency runs from the *intended* arrival, not the first
   transmission: an open-loop driver that falls behind its schedule
   still charges the wait to the system (no coordinated omission).
   Closed-loop clients pass [intended_at = sent_at], so the two
   measures coincide there. *)
let latencies_in t ~from_ ~until_ =
  collect t ~from_ ~until_ (fun i -> Dense_map.get t.replied i - Dense_map.get t.intended i)

let service_latencies_in t ~from_ ~until_ =
  collect t ~from_ ~until_ (fun i -> Dense_map.get t.replied i - Dense_map.get t.sent i)

let completions_in t ~from_ ~until_ =
  let a = collect t ~from_ ~until_ (Dense_map.get t.replied) in
  (* Newest first is descending in the usual case: flip, then let the
     sort confirm it in one pass. *)
  let n = Array.length a in
  for i = 0 to (n / 2) - 1 do
    let x = a.(i) in
    a.(i) <- a.(n - 1 - i);
    a.(n - 1 - i) <- x
  done;
  Ci_stats.Summary.sort_ascending a;
  a
