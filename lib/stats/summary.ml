type t = {
  count : int;
  mean : float;
  stddev : float;
  min : int;
  max : int;
  p25 : int;
  p50 : int;
  p90 : int;
  p99 : int;
}

let empty =
  { count = 0; mean = 0.; stddev = 0.; min = 0; max = 0; p25 = 0; p50 = 0; p90 = 0; p99 = 0 }

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.quantile: empty array";
  let q = Float.max 0. (Float.min 1. q) in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let sort_ascending a =
  let rec sorted i = i >= Array.length a || (a.(i - 1) <= a.(i) && sorted (i + 1)) in
  if not (sorted 1) then Array.stable_sort Int.compare a

let of_samples a =
  let n = Array.length a in
  if n = 0 then empty
  else begin
    let sorted = Array.copy a in
    sort_ascending sorted;
    let total = Array.fold_left (fun acc x -> acc +. float_of_int x) 0. sorted in
    let mean = total /. float_of_int n in
    let var =
      Array.fold_left
        (fun acc x ->
          let d = float_of_int x -. mean in
          acc +. (d *. d))
        0. sorted
      /. float_of_int n
    in
    {
      count = n;
      mean;
      stddev = sqrt var;
      min = sorted.(0);
      max = sorted.(n - 1);
      p25 = quantile sorted 0.25;
      p50 = quantile sorted 0.50;
      p90 = quantile sorted 0.90;
      p99 = quantile sorted 0.99;
    }
  end

let pp fmt t =
  if t.count = 0 then Format.pp_print_string fmt "no samples"
  else
    Format.fprintf fmt
      "n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus" t.count
      (t.mean /. 1000.)
      (float_of_int t.p50 /. 1000.)
      (float_of_int t.p90 /. 1000.)
      (float_of_int t.p99 /. 1000.)
      (float_of_int t.max /. 1000.)
