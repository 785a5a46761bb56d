(* Request ids count up from 0 per client, so each client's bindings
   live in a {!Dense_map} indexed by request id, the clients in one
   indexed by [client + 1] (Mencius skip values use client -1). A pair
   outside that shape — an odd client id, or a request id far beyond
   what the client's map holds — goes to a hash table instead, so a
   stray huge id cannot allocate a huge array. *)
type 'a t = {
  dense : 'a Dense_map.t Dense_map.t;
  sparse : (int * int, 'a) Hashtbl.t;
  mutable size : int;
}

let create () = { dense = Dense_map.create (); sparse = Hashtbl.create 16; size = 0 }
let max_clients = 1 lsl 16

let in_dense t ~client ~req_id =
  let c = client + 1 in
  c >= 0 && c < max_clients && Dense_map.mem t.dense c
  && Dense_map.mem (Dense_map.get t.dense c) req_id

let in_sparse t ~client ~req_id =
  Hashtbl.length t.sparse > 0 && Hashtbl.mem t.sparse (client, req_id)

let mem t ~client ~req_id = in_dense t ~client ~req_id || in_sparse t ~client ~req_id

let find t ~client ~req_id =
  if in_dense t ~client ~req_id then
    Some (Dense_map.get (Dense_map.get t.dense (client + 1)) req_id)
  else if in_sparse t ~client ~req_id then Hashtbl.find_opt t.sparse (client, req_id)
  else None

let add t ~client ~req_id v =
  t.size <- t.size + 1;
  let c = client + 1 in
  if c < 0 || c >= max_clients || req_id < 0 then Hashtbl.add t.sparse (client, req_id) v
  else begin
    let m =
      if Dense_map.mem t.dense c then Dense_map.get t.dense c
      else begin
        let m = Dense_map.create () in
        Dense_map.replace t.dense c m;
        m
      end
    in
    if req_id < (2 * Dense_map.max_key m) + 4096 then Dense_map.replace m req_id v
    else Hashtbl.add t.sparse (client, req_id) v
  end

let replace t ~client ~req_id v =
  if in_dense t ~client ~req_id then
    Dense_map.replace (Dense_map.get t.dense (client + 1)) req_id v
  else if in_sparse t ~client ~req_id then Hashtbl.replace t.sparse (client, req_id) v
  else add t ~client ~req_id v

let size t = t.size
