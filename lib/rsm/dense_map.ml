(* Keys are split into chunks of [chunk] slots. A chunk is created on
   its first binding and filled with that value: unbound slots hold it
   as a filler and only the chunk's presence bitmap says whether a slot
   is meaningful. Fixed-size chunks keep every block small enough for
   the runtime's size-class pools: growing never copies the values and
   never leaves a large dead array behind. *)
let bits = 7
let chunk = 1 lsl bits

type 'v chunk = { vals : 'v array; present : Bytes.t (* chunk / 8 bytes *) }

type 'v t = {
  mutable dir : 'v chunk array; (* chunk i holds keys [i * chunk, (i + 1) * chunk) *)
  none : 'v chunk; (* stands in for an unallocated chunk; never written *)
  mutable count : int;
  mutable top : int; (* largest bound key, -1 when none *)
}

let create () =
  let none = { vals = [||]; present = Bytes.empty } in
  { dir = [||]; none; count = 0; top = -1 }

(* Whether slot [j] of an allocated chunk is bound. *)
let bound c j = Char.code (Bytes.unsafe_get c.present (j lsr 3)) land (1 lsl (j land 7)) <> 0

let mem t k =
  k >= 0
  && k lsr bits < Array.length t.dir
  &&
  let c = t.dir.(k lsr bits) in
  c != t.none && bound c (k land (chunk - 1))

let chunk_for t k v =
  let i = k lsr bits in
  let n = Array.length t.dir in
  if i >= n then begin
    let dir = Array.make (max (i + 1) (max 8 (2 * n))) t.none in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  let c = t.dir.(i) in
  if c != t.none then c
  else begin
    let c = { vals = Array.make chunk v; present = Bytes.make (chunk / 8) '\000' } in
    t.dir.(i) <- c;
    c
  end

let replace t k v =
  if k < 0 then invalid_arg "Dense_map.replace: negative key";
  let c = chunk_for t k v in
  let j = k land (chunk - 1) in
  if not (bound c j) then begin
    let byte = Char.code (Bytes.unsafe_get c.present (j lsr 3)) in
    Bytes.unsafe_set c.present (j lsr 3) (Char.unsafe_chr (byte lor (1 lsl (j land 7))));
    t.count <- t.count + 1;
    if k > t.top then t.top <- k
  end;
  c.vals.(j) <- v

let get t k =
  if mem t k then t.dir.(k lsr bits).vals.(k land (chunk - 1)) else raise Not_found

let find_opt t k = if mem t k then Some (get t k) else None
let length t = t.count
let max_key t = t.top

let reset t =
  t.dir <- [||];
  t.count <- 0;
  t.top <- -1

let iter f t =
  Array.iteri
    (fun i c ->
      if c != t.none then
        for j = 0 to chunk - 1 do
          if bound c j then f ((i lsl bits) + j) c.vals.(j)
        done)
    t.dir

(* Descending, so that consing builds an ascending list. *)
let fold_from ~from_ f t acc =
  let acc = ref acc in
  for i = Array.length t.dir - 1 downto max 0 (from_ asr bits) do
    let c = t.dir.(i) in
    if c != t.none then
      for j = chunk - 1 downto 0 do
        let k = (i lsl bits) + j in
        if k >= from_ && bound c j then acc := f k c.vals.(j) !acc
      done
  done;
  !acc

let fold f t acc = fold_from ~from_:0 f t acc
let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
