type t = Command.result Req_map.t

let create = Req_map.create
let find = Req_map.find

let record t ~client ~req_id r =
  assert (not (Req_map.mem t ~client ~req_id));
  Req_map.add t ~client ~req_id r

let executed = Req_map.mem
let size = Req_map.size
