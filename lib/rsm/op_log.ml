type 'v t = {
  equal : 'v -> 'v -> bool;
  decided : 'v Dense_map.t; (* instances are dense from 0 *)
  mutable gap : int; (* smallest undecided instance *)
  mutable bad : (int * 'v * 'v) list;
}

let create ?(equal = ( = )) () =
  { equal; decided = Dense_map.create (); gap = 0; bad = [] }

let is_decided t ~inst = Dense_map.mem t.decided inst

let decide t ~inst v =
  if inst < 0 then invalid_arg "Op_log.decide: negative instance";
  if is_decided t ~inst then begin
    let prev = Dense_map.get t.decided inst in
    if t.equal prev v then `Duplicate
    else begin
      t.bad <- (inst, prev, v) :: t.bad;
      `Conflict prev
    end
  end
  else begin
    Dense_map.replace t.decided inst v;
    while is_decided t ~inst:t.gap do
      t.gap <- t.gap + 1
    done;
    `New
  end

let get t ~inst = Dense_map.find_opt t.decided inst
let first_gap t = t.gap

let highest_decided t =
  let top = Dense_map.max_key t.decided in
  if top < 0 then None else Some top

let decided_count t = Dense_map.length t.decided
let conflicts t = List.rev t.bad
let to_list t = Dense_map.to_list t.decided

let to_list_from t ~from_ =
  Dense_map.fold_from ~from_ (fun i v acc -> (i, v) :: acc) t.decided []

let iter t f = Dense_map.iter f t.decided

let iter_prefix t ~from_ f =
  let i = ref from_ in
  while is_decided t ~inst:!i do
    f !i (Dense_map.get t.decided !i);
    incr i
  done;
  !i
