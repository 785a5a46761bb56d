(* In-memory span recorder for the benchmark's traced run.

   A span is a labelled [start, end) interval with the span that was
   open when it began as its parent; spans of one command carry its
   request id. Storage is preallocated parallel arrays, so recording a
   span costs two clock reads and a few array writes. Self time is a
   span's duration minus the durations of its direct children. *)

type t = {
  now : unit -> int;
  label : int array;
  parent : int array;
  req : int array;
  t0 : int array;
  t1 : int array;
  stack : int array;
  mutable n : int;
  mutable depth : int;
}

let max_depth = 16

let create ?(now = Ci_runtime.Clock.now_ns) ~capacity () =
  {
    now;
    label = Array.make capacity 0;
    parent = Array.make capacity (-1);
    req = Array.make capacity 0;
    t0 = Array.make capacity 0;
    t1 = Array.make capacity 0;
    stack = Array.make max_depth 0;
    n = 0;
    depth = 0;
  }

let enter t ~label ~req =
  let i = t.n in
  if i >= Array.length t.label then invalid_arg "Spans.enter: capacity exhausted";
  if t.depth >= max_depth then invalid_arg "Spans.enter: nesting too deep";
  t.n <- i + 1;
  t.label.(i) <- label;
  t.req.(i) <- req;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.t0.(i) <- t.now ()

let leave t =
  let stop = t.now () in
  if t.depth = 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- t.depth - 1;
  t.t1.(t.stack.(t.depth)) <- stop

let count t = t.n
let label t i = t.label.(i)
let req t i = t.req.(i)
let parent t i = t.parent.(i)
let duration t i = t.t1.(i) - t.t0.(i)

let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self
