module Command = Ci_rsm.Command
open Wire

exception Error of string

let err msg = raise (Error msg)

(* ---------- sizes ---------- *)

(* Integers are 8 bytes, counts 4, tags/bools/discriminants 1. All the
   size functions below are tag-inclusive for the construct they
   describe and allocation-free (accumulator recursion, no closures) so
   [encoded_size] can run on the transport hot path. *)

let cmd_size = function
  | Command.Put _ -> 17
  | Command.Get _ -> 9
  | Command.Cas _ -> 25
  | Command.Nop -> 1
  | Command.Mput _ -> 33
  | Command.Prep _ -> 25
  | Command.Fin _ -> 18
  | Command.Range _ -> 17

let result_size = function
  | Command.Done -> 1
  | Command.Found None -> 1
  | Command.Found (Some _) -> 9
  | Command.Swapped _ -> 2
  | Command.Vals kvs -> 5 + (16 * List.length kvs)
  | Command.Rejected -> 1

let value_size v = 16 + cmd_size v.cmd

let pn_size = 16

let rec iv_size acc = function
  | [] -> acc
  | (_, v) :: rest -> iv_size (acc + 8 + value_size v) rest

let rec ipnv_size acc = function
  | [] -> acc
  | (_, (_, v)) :: rest -> ipnv_size (acc + 8 + pn_size + value_size v) rest

let entry_size = function
  | Leader_change _ -> 17
  | Acceptor_change { carried; _ } -> 13 + iv_size 0 carried
  | Epoch_change { actives } -> 5 + (8 * List.length actives)

let rec ie_size acc = function
  | [] -> acc
  | (_, e) :: rest -> ie_size (acc + 8 + entry_size e) rest

let rec varr_size vs i acc =
  if i >= Array.length vs then acc
  else varr_size vs (i + 1) (acc + value_size (Array.unsafe_get vs i))

let encoded_size = function
  | Request { cmd; _ } -> 10 + cmd_size cmd
  | Reply { result; _ } -> 9 + result_size result
  | Forward { v } -> 1 + value_size v
  | Op_prepare_request _ -> 18
  | Op_prepare_response { accepted; _ } -> 21 + ipnv_size 0 accepted
  | Op_abandon _ -> 17
  | Op_accept_request { v; _ } -> 25 + value_size v
  | Op_learn { v; _ } -> 9 + value_size v
  | Op_accept_batch { vs; _ } -> 29 + varr_size vs 0 0
  | Op_learn_batch { vs; _ } -> 13 + varr_size vs 0 0
  | Pu_prepare _ -> 25
  | Pu_promise { accepted; chosen_suffix; _ } ->
    let acc =
      match accepted with None -> 0 | Some (_, e) -> pn_size + entry_size e
    in
    30 + acc + ie_size 0 chosen_suffix
  | Pu_reject { chosen_suffix; _ } -> 29 + ie_size 0 chosen_suffix
  | Pu_accept { entry; _ } -> 25 + entry_size entry
  | Pu_accepted _ -> 25
  | Pu_nack _ -> 25
  | Pu_learn { entry; _ } -> 9 + entry_size entry
  | Pu_read _ -> 17
  | Pu_read_reply { chosen_suffix; _ } -> 13 + ie_size 0 chosen_suffix
  | Ls_req _ -> 17
  | Ls_reply { decisions; _ } -> 13 + iv_size 0 decisions
  | Bp_prepare _ -> 25
  | Bp_promise { accepted; _ } ->
    let acc =
      match accepted with None -> 0 | Some (_, v) -> pn_size + value_size v
    in
    26 + acc
  | Bp_reject _ -> 25
  | Bp_accept { v; _ } -> 25 + value_size v
  | Bp_learn { v; _ } -> 25 + value_size v
  | Mp_prepare _ -> 25
  | Mp_promise { accepted; _ } -> 21 + ipnv_size 0 accepted
  | Mp_reject _ -> 17
  | Mp_accept { v; _ } -> 25 + value_size v
  | Mp_learn { v; _ } -> 25 + value_size v
  | Mp_accept_batch { vs; _ } -> 29 + varr_size vs 0 0
  | Mp_learn_batch { vs; _ } -> 29 + varr_size vs 0 0
  | Mn_accept { v; _ } ->
    10 + (match v with None -> 0 | Some v -> value_size v)
  | Mn_learn { v; _ } ->
    10 + (match v with None -> 0 | Some v -> value_size v)
  | Cp_accept { v; _ } -> 17 + value_size v
  | Cp_accepted { v; _ } -> 17 + value_size v
  | Cp_learn { v; _ } -> 17 + value_size v
  | Cp_state { accepted; _ } -> 13 + iv_size 0 accepted
  | Tp_prepare { v; _ } -> 9 + value_size v
  | Tp_ack _ -> 9
  | Tp_commit { v; _ } -> 9 + value_size v
  | Tp_commit_ack _ -> 9
  | Tp_rollback _ -> 9
  | Tp_nack _ -> 9
  | Le_renew _ -> 25
  | Le_grant _ -> 25

(* Max over the constructors with no list/array payload: Bp_promise with
   accepted = Some (pn, {cmd = Mput _}) at 26 + 16 + 49. *)
let max_fixed_size = 91

(* ---------- encode ---------- *)

(* Manual little-endian byte writes: [Bytes.set_int64_le] would go
   through boxed [Int64.of_int]. [Char.unsafe_chr] is safe under the
   [land 0xff] mask; [Bytes.set] itself stays bounds-checked. *)

let put_byte b pos x =
  Bytes.set b pos (Char.unsafe_chr (x land 0xff));
  pos + 1

let put_int b pos x =
  Bytes.set b pos (Char.unsafe_chr (x land 0xff));
  Bytes.set b (pos + 1) (Char.unsafe_chr ((x asr 8) land 0xff));
  Bytes.set b (pos + 2) (Char.unsafe_chr ((x asr 16) land 0xff));
  Bytes.set b (pos + 3) (Char.unsafe_chr ((x asr 24) land 0xff));
  Bytes.set b (pos + 4) (Char.unsafe_chr ((x asr 32) land 0xff));
  Bytes.set b (pos + 5) (Char.unsafe_chr ((x asr 40) land 0xff));
  Bytes.set b (pos + 6) (Char.unsafe_chr ((x asr 48) land 0xff));
  Bytes.set b (pos + 7) (Char.unsafe_chr ((x asr 56) land 0xff));
  pos + 8

let put_bool b pos v = put_byte b pos (if v then 1 else 0)

let put_count b pos n =
  if n < 0 || n > 0x3FFF_FFFF then err "encode: element count out of range";
  Bytes.set b pos (Char.unsafe_chr (n land 0xff));
  Bytes.set b (pos + 1) (Char.unsafe_chr ((n asr 8) land 0xff));
  Bytes.set b (pos + 2) (Char.unsafe_chr ((n asr 16) land 0xff));
  Bytes.set b (pos + 3) (Char.unsafe_chr ((n asr 24) land 0xff));
  pos + 4

let put_cmd b pos = function
  | Command.Put { key; data } ->
    let pos = put_byte b pos 0 in
    let pos = put_int b pos key in
    put_int b pos data
  | Command.Get { key } ->
    let pos = put_byte b pos 1 in
    put_int b pos key
  | Command.Cas { key; expect; data } ->
    let pos = put_byte b pos 2 in
    let pos = put_int b pos key in
    let pos = put_int b pos expect in
    put_int b pos data
  | Command.Nop -> put_byte b pos 3
  | Command.Mput { k1; d1; k2; d2 } ->
    let pos = put_byte b pos 4 in
    let pos = put_int b pos k1 in
    let pos = put_int b pos d1 in
    let pos = put_int b pos k2 in
    put_int b pos d2
  | Command.Prep { txn; key; data } ->
    let pos = put_byte b pos 5 in
    let pos = put_int b pos txn in
    let pos = put_int b pos key in
    put_int b pos data
  | Command.Fin { txn; key; commit } ->
    let pos = put_byte b pos 6 in
    let pos = put_int b pos txn in
    let pos = put_int b pos key in
    put_bool b pos commit
  | Command.Range { lo; hi } ->
    let pos = put_byte b pos 7 in
    let pos = put_int b pos lo in
    put_int b pos hi

let rec put_kvs b pos = function
  | [] -> pos
  | (k, v) :: rest ->
    let pos = put_int b pos k in
    let pos = put_int b pos v in
    put_kvs b pos rest

let put_result b pos = function
  | Command.Done -> put_byte b pos 0
  | Command.Found None -> put_byte b pos 1
  | Command.Found (Some x) ->
    let pos = put_byte b pos 2 in
    put_int b pos x
  | Command.Swapped ok ->
    let pos = put_byte b pos 3 in
    put_bool b pos ok
  | Command.Vals kvs ->
    let pos = put_byte b pos 4 in
    let pos = put_count b pos (List.length kvs) in
    put_kvs b pos kvs
  | Command.Rejected -> put_byte b pos 5

let put_value b pos v =
  let pos = put_int b pos v.client in
  let pos = put_int b pos v.req_id in
  put_cmd b pos v.cmd

let put_pn b pos (pn : Pn.t) =
  let pos = put_int b pos pn.round in
  put_int b pos pn.owner

let rec put_iv b pos = function
  | [] -> pos
  | (i, v) :: rest ->
    let pos = put_int b pos i in
    let pos = put_value b pos v in
    put_iv b pos rest

let rec put_ipnv b pos = function
  | [] -> pos
  | (i, (pn, v)) :: rest ->
    let pos = put_int b pos i in
    let pos = put_pn b pos pn in
    let pos = put_value b pos v in
    put_ipnv b pos rest

let rec put_ints b pos = function
  | [] -> pos
  | i :: rest ->
    let pos = put_int b pos i in
    put_ints b pos rest

let put_entry b pos = function
  | Leader_change { leader; acceptor } ->
    let pos = put_byte b pos 0 in
    let pos = put_int b pos leader in
    put_int b pos acceptor
  | Acceptor_change { acceptor; carried } ->
    let pos = put_byte b pos 1 in
    let pos = put_int b pos acceptor in
    let pos = put_count b pos (List.length carried) in
    put_iv b pos carried
  | Epoch_change { actives } ->
    let pos = put_byte b pos 2 in
    let pos = put_count b pos (List.length actives) in
    put_ints b pos actives

let rec put_ie b pos = function
  | [] -> pos
  | (i, e) :: rest ->
    let pos = put_int b pos i in
    let pos = put_entry b pos e in
    put_ie b pos rest

let rec put_varr b pos vs i =
  if i >= Array.length vs then pos
  else
    let pos = put_value b pos (Array.unsafe_get vs i) in
    put_varr b pos vs (i + 1)

let encode m b ~pos =
  let size = encoded_size m in
  if pos < 0 || pos + size > Bytes.length b then
    err "encode: buffer too small";
  let fin =
    match m with
    | Request { req_id; cmd; relaxed_read } ->
      let p = put_byte b pos 0 in
      let p = put_int b p req_id in
      let p = put_cmd b p cmd in
      put_bool b p relaxed_read
    | Reply { req_id; result } ->
      let p = put_byte b pos 1 in
      let p = put_int b p req_id in
      put_result b p result
    | Forward { v } ->
      let p = put_byte b pos 2 in
      put_value b p v
    | Op_prepare_request { pn; must_be_fresh } ->
      let p = put_byte b pos 3 in
      let p = put_pn b p pn in
      put_bool b p must_be_fresh
    | Op_prepare_response { pn; accepted } ->
      let p = put_byte b pos 4 in
      let p = put_pn b p pn in
      let p = put_count b p (List.length accepted) in
      put_ipnv b p accepted
    | Op_abandon { hpn } ->
      let p = put_byte b pos 5 in
      put_pn b p hpn
    | Op_accept_request { inst; pn; v } ->
      let p = put_byte b pos 6 in
      let p = put_int b p inst in
      let p = put_pn b p pn in
      put_value b p v
    | Op_learn { inst; v } ->
      let p = put_byte b pos 7 in
      let p = put_int b p inst in
      put_value b p v
    | Op_accept_batch { base; pn; vs } ->
      let p = put_byte b pos 8 in
      let p = put_int b p base in
      let p = put_pn b p pn in
      let p = put_count b p (Array.length vs) in
      put_varr b p vs 0
    | Op_learn_batch { base; vs } ->
      let p = put_byte b pos 9 in
      let p = put_int b p base in
      let p = put_count b p (Array.length vs) in
      put_varr b p vs 0
    | Pu_prepare { cseq; pn } ->
      let p = put_byte b pos 10 in
      let p = put_int b p cseq in
      put_pn b p pn
    | Pu_promise { cseq; pn; accepted; chosen_suffix } ->
      let p = put_byte b pos 11 in
      let p = put_int b p cseq in
      let p = put_pn b p pn in
      let p =
        match accepted with
        | None -> put_byte b p 0
        | Some (apn, entry) ->
          let p = put_byte b p 1 in
          let p = put_pn b p apn in
          put_entry b p entry
      in
      let p = put_count b p (List.length chosen_suffix) in
      put_ie b p chosen_suffix
    | Pu_reject { cseq; pn; chosen_suffix } ->
      let p = put_byte b pos 12 in
      let p = put_int b p cseq in
      let p = put_pn b p pn in
      let p = put_count b p (List.length chosen_suffix) in
      put_ie b p chosen_suffix
    | Pu_accept { cseq; pn; entry } ->
      let p = put_byte b pos 13 in
      let p = put_int b p cseq in
      let p = put_pn b p pn in
      put_entry b p entry
    | Pu_accepted { cseq; pn } ->
      let p = put_byte b pos 14 in
      let p = put_int b p cseq in
      put_pn b p pn
    | Pu_nack { cseq; pn } ->
      let p = put_byte b pos 15 in
      let p = put_int b p cseq in
      put_pn b p pn
    | Pu_learn { cseq; entry } ->
      let p = put_byte b pos 16 in
      let p = put_int b p cseq in
      put_entry b p entry
    | Pu_read { token; from_ } ->
      let p = put_byte b pos 17 in
      let p = put_int b p token in
      put_int b p from_
    | Pu_read_reply { token; chosen_suffix } ->
      let p = put_byte b pos 18 in
      let p = put_int b p token in
      let p = put_count b p (List.length chosen_suffix) in
      put_ie b p chosen_suffix
    | Ls_req { token; from_ } ->
      let p = put_byte b pos 19 in
      let p = put_int b p token in
      put_int b p from_
    | Ls_reply { token; decisions } ->
      let p = put_byte b pos 20 in
      let p = put_int b p token in
      let p = put_count b p (List.length decisions) in
      put_iv b p decisions
    | Bp_prepare { inst; pn } ->
      let p = put_byte b pos 21 in
      let p = put_int b p inst in
      put_pn b p pn
    | Bp_promise { inst; pn; accepted } ->
      let p = put_byte b pos 22 in
      let p = put_int b p inst in
      let p = put_pn b p pn in
      (match accepted with
       | None -> put_byte b p 0
       | Some (apn, v) ->
         let p = put_byte b p 1 in
         let p = put_pn b p apn in
         put_value b p v)
    | Bp_reject { inst; pn } ->
      let p = put_byte b pos 23 in
      let p = put_int b p inst in
      put_pn b p pn
    | Bp_accept { inst; pn; v } ->
      let p = put_byte b pos 24 in
      let p = put_int b p inst in
      let p = put_pn b p pn in
      put_value b p v
    | Bp_learn { inst; pn; v } ->
      let p = put_byte b pos 25 in
      let p = put_int b p inst in
      let p = put_pn b p pn in
      put_value b p v
    | Mp_prepare { pn; low } ->
      let p = put_byte b pos 26 in
      let p = put_pn b p pn in
      put_int b p low
    | Mp_promise { pn; accepted } ->
      let p = put_byte b pos 27 in
      let p = put_pn b p pn in
      let p = put_count b p (List.length accepted) in
      put_ipnv b p accepted
    | Mp_reject { pn } ->
      let p = put_byte b pos 28 in
      put_pn b p pn
    | Mp_accept { inst; pn; v } ->
      let p = put_byte b pos 29 in
      let p = put_int b p inst in
      let p = put_pn b p pn in
      put_value b p v
    | Mp_learn { inst; pn; v } ->
      let p = put_byte b pos 30 in
      let p = put_int b p inst in
      let p = put_pn b p pn in
      put_value b p v
    | Mp_accept_batch { base; pn; vs } ->
      let p = put_byte b pos 31 in
      let p = put_int b p base in
      let p = put_pn b p pn in
      let p = put_count b p (Array.length vs) in
      put_varr b p vs 0
    | Mp_learn_batch { base; pn; vs } ->
      let p = put_byte b pos 32 in
      let p = put_int b p base in
      let p = put_pn b p pn in
      let p = put_count b p (Array.length vs) in
      put_varr b p vs 0
    | Mn_accept { inst; v } ->
      let p = put_byte b pos 33 in
      let p = put_int b p inst in
      (match v with
       | None -> put_byte b p 0
       | Some v ->
         let p = put_byte b p 1 in
         put_value b p v)
    | Mn_learn { inst; v } ->
      let p = put_byte b pos 34 in
      let p = put_int b p inst in
      (match v with
       | None -> put_byte b p 0
       | Some v ->
         let p = put_byte b p 1 in
         put_value b p v)
    | Cp_accept { epoch; inst; v } ->
      let p = put_byte b pos 35 in
      let p = put_int b p epoch in
      let p = put_int b p inst in
      put_value b p v
    | Cp_accepted { epoch; inst; v } ->
      let p = put_byte b pos 36 in
      let p = put_int b p epoch in
      let p = put_int b p inst in
      put_value b p v
    | Cp_learn { epoch; inst; v } ->
      let p = put_byte b pos 37 in
      let p = put_int b p epoch in
      let p = put_int b p inst in
      put_value b p v
    | Cp_state { epoch; accepted } ->
      let p = put_byte b pos 38 in
      let p = put_int b p epoch in
      let p = put_count b p (List.length accepted) in
      put_iv b p accepted
    | Tp_prepare { inst; v } ->
      let p = put_byte b pos 39 in
      let p = put_int b p inst in
      put_value b p v
    | Tp_ack { inst } ->
      let p = put_byte b pos 40 in
      put_int b p inst
    | Tp_commit { inst; v } ->
      let p = put_byte b pos 41 in
      let p = put_int b p inst in
      put_value b p v
    | Tp_commit_ack { inst } ->
      let p = put_byte b pos 42 in
      put_int b p inst
    | Tp_rollback { inst } ->
      let p = put_byte b pos 43 in
      put_int b p inst
    | Tp_nack { inst } ->
      let p = put_byte b pos 44 in
      put_int b p inst
    | Le_renew { pn; sent } ->
      let p = put_byte b pos 45 in
      let p = put_pn b p pn in
      put_int b p sent
    | Le_grant { pn; sent } ->
      let p = put_byte b pos 46 in
      let p = put_pn b p pn in
      put_int b p sent
  in
  if fin - pos <> size then err "encode: size invariant broken";
  size

(* ---------- decode ---------- *)

type cur = { buf : Bytes.t; limit : int; mutable pos : int }

let need c n = if c.limit - c.pos < n then err "decode: truncated message"

let get_byte c =
  need c 1;
  let x = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  x

(* The native compiler keeps the [int64] unboxed: no allocation. *)
let get_int c =
  need c 8;
  let p = c.pos in
  c.pos <- p + 8;
  Int64.to_int (Bytes.get_int64_le c.buf p)

let get_bool c =
  match get_byte c with
  | 0 -> false
  | 1 -> true
  | _ -> err "decode: bad boolean"

(* Element counts are validated against the bytes actually remaining
   ([min_elem] is a per-element lower bound), so a garbage count can
   never trigger an allocation larger than the input buffer itself. *)
let get_count c ~min_elem =
  need c 4;
  let p = c.pos in
  c.pos <- p + 4;
  let n = Int32.to_int (Bytes.get_int32_le c.buf p) land 0xffff_ffff in
  if n * min_elem > c.limit - c.pos then err "decode: bad element count";
  n

let rec get_list c n f =
  if n = 0 then []
  else
    let x = f c in
    x :: get_list c (n - 1) f

let get_cmd c =
  match get_byte c with
  | 0 ->
    let key = get_int c in
    let data = get_int c in
    Command.Put { key; data }
  | 1 ->
    let key = get_int c in
    Command.Get { key }
  | 2 ->
    let key = get_int c in
    let expect = get_int c in
    let data = get_int c in
    Command.Cas { key; expect; data }
  | 3 -> Command.Nop
  | 4 ->
    let k1 = get_int c in
    let d1 = get_int c in
    let k2 = get_int c in
    let d2 = get_int c in
    Command.Mput { k1; d1; k2; d2 }
  | 5 ->
    let txn = get_int c in
    let key = get_int c in
    let data = get_int c in
    Command.Prep { txn; key; data }
  | 6 ->
    let txn = get_int c in
    let key = get_int c in
    let commit = get_bool c in
    Command.Fin { txn; key; commit }
  | 7 ->
    let lo = get_int c in
    let hi = get_int c in
    Command.Range { lo; hi }
  | _ -> err "decode: bad command tag"

let get_kv c =
  let k = get_int c in
  let v = get_int c in
  (k, v)

let get_result c =
  match get_byte c with
  | 0 -> Command.Done
  | 1 -> Command.Found None
  | 2 ->
    let x = get_int c in
    Command.Found (Some x)
  | 3 ->
    let ok = get_bool c in
    Command.Swapped ok
  | 4 ->
    let n = get_count c ~min_elem:16 in
    let kvs = get_list c n get_kv in
    Command.Vals kvs
  | 5 -> Command.Rejected
  | _ -> err "decode: bad result tag"

let get_value c =
  let client = get_int c in
  let req_id = get_int c in
  let cmd = get_cmd c in
  { client; req_id; cmd }

let get_pn c : Pn.t =
  let round = get_int c in
  let owner = get_int c in
  { round; owner }

let get_iv c =
  let i = get_int c in
  let v = get_value c in
  (i, v)

let get_ipnv c =
  let i = get_int c in
  let pn = get_pn c in
  let v = get_value c in
  (i, (pn, v))

let get_entry c =
  match get_byte c with
  | 0 ->
    let leader = get_int c in
    let acceptor = get_int c in
    Leader_change { leader; acceptor }
  | 1 ->
    let acceptor = get_int c in
    let n = get_count c ~min_elem:25 in
    let carried = get_list c n get_iv in
    Acceptor_change { acceptor; carried }
  | 2 ->
    let n = get_count c ~min_elem:8 in
    let actives = get_list c n get_int in
    Epoch_change { actives }
  | _ -> err "decode: bad config-entry tag"

let get_ie c =
  let i = get_int c in
  let e = get_entry c in
  (i, e)

let get_varr c =
  let n = get_count c ~min_elem:17 in
  if n = 0 then [||]
  else begin
    let first = get_value c in
    let vs = Array.make n first in
    for i = 1 to n - 1 do
      vs.(i) <- get_value c
    done;
    vs
  end

let get_msg c =
  match get_byte c with
  | 0 ->
    let req_id = get_int c in
    let cmd = get_cmd c in
    let relaxed_read = get_bool c in
    Request { req_id; cmd; relaxed_read }
  | 1 ->
    let req_id = get_int c in
    let result = get_result c in
    Reply { req_id; result }
  | 2 ->
    let v = get_value c in
    Forward { v }
  | 3 ->
    let pn = get_pn c in
    let must_be_fresh = get_bool c in
    Op_prepare_request { pn; must_be_fresh }
  | 4 ->
    let pn = get_pn c in
    let n = get_count c ~min_elem:41 in
    let accepted = get_list c n get_ipnv in
    Op_prepare_response { pn; accepted }
  | 5 ->
    let hpn = get_pn c in
    Op_abandon { hpn }
  | 6 ->
    let inst = get_int c in
    let pn = get_pn c in
    let v = get_value c in
    Op_accept_request { inst; pn; v }
  | 7 ->
    let inst = get_int c in
    let v = get_value c in
    Op_learn { inst; v }
  | 8 ->
    let base = get_int c in
    let pn = get_pn c in
    let vs = get_varr c in
    Op_accept_batch { base; pn; vs }
  | 9 ->
    let base = get_int c in
    let vs = get_varr c in
    Op_learn_batch { base; vs }
  | 10 ->
    let cseq = get_int c in
    let pn = get_pn c in
    Pu_prepare { cseq; pn }
  | 11 ->
    let cseq = get_int c in
    let pn = get_pn c in
    let accepted =
      match get_byte c with
      | 0 -> None
      | 1 ->
        let apn = get_pn c in
        let entry = get_entry c in
        Some (apn, entry)
      | _ -> err "decode: bad option tag"
    in
    let n = get_count c ~min_elem:13 in
    let chosen_suffix = get_list c n get_ie in
    Pu_promise { cseq; pn; accepted; chosen_suffix }
  | 12 ->
    let cseq = get_int c in
    let pn = get_pn c in
    let n = get_count c ~min_elem:13 in
    let chosen_suffix = get_list c n get_ie in
    Pu_reject { cseq; pn; chosen_suffix }
  | 13 ->
    let cseq = get_int c in
    let pn = get_pn c in
    let entry = get_entry c in
    Pu_accept { cseq; pn; entry }
  | 14 ->
    let cseq = get_int c in
    let pn = get_pn c in
    Pu_accepted { cseq; pn }
  | 15 ->
    let cseq = get_int c in
    let pn = get_pn c in
    Pu_nack { cseq; pn }
  | 16 ->
    let cseq = get_int c in
    let entry = get_entry c in
    Pu_learn { cseq; entry }
  | 17 ->
    let token = get_int c in
    let from_ = get_int c in
    Pu_read { token; from_ }
  | 18 ->
    let token = get_int c in
    let n = get_count c ~min_elem:13 in
    let chosen_suffix = get_list c n get_ie in
    Pu_read_reply { token; chosen_suffix }
  | 19 ->
    let token = get_int c in
    let from_ = get_int c in
    Ls_req { token; from_ }
  | 20 ->
    let token = get_int c in
    let n = get_count c ~min_elem:25 in
    let decisions = get_list c n get_iv in
    Ls_reply { token; decisions }
  | 21 ->
    let inst = get_int c in
    let pn = get_pn c in
    Bp_prepare { inst; pn }
  | 22 ->
    let inst = get_int c in
    let pn = get_pn c in
    let accepted =
      match get_byte c with
      | 0 -> None
      | 1 ->
        let apn = get_pn c in
        let v = get_value c in
        Some (apn, v)
      | _ -> err "decode: bad option tag"
    in
    Bp_promise { inst; pn; accepted }
  | 23 ->
    let inst = get_int c in
    let pn = get_pn c in
    Bp_reject { inst; pn }
  | 24 ->
    let inst = get_int c in
    let pn = get_pn c in
    let v = get_value c in
    Bp_accept { inst; pn; v }
  | 25 ->
    let inst = get_int c in
    let pn = get_pn c in
    let v = get_value c in
    Bp_learn { inst; pn; v }
  | 26 ->
    let pn = get_pn c in
    let low = get_int c in
    Mp_prepare { pn; low }
  | 27 ->
    let pn = get_pn c in
    let n = get_count c ~min_elem:41 in
    let accepted = get_list c n get_ipnv in
    Mp_promise { pn; accepted }
  | 28 ->
    let pn = get_pn c in
    Mp_reject { pn }
  | 29 ->
    let inst = get_int c in
    let pn = get_pn c in
    let v = get_value c in
    Mp_accept { inst; pn; v }
  | 30 ->
    let inst = get_int c in
    let pn = get_pn c in
    let v = get_value c in
    Mp_learn { inst; pn; v }
  | 31 ->
    let base = get_int c in
    let pn = get_pn c in
    let vs = get_varr c in
    Mp_accept_batch { base; pn; vs }
  | 32 ->
    let base = get_int c in
    let pn = get_pn c in
    let vs = get_varr c in
    Mp_learn_batch { base; pn; vs }
  | 33 ->
    let inst = get_int c in
    let v =
      match get_byte c with
      | 0 -> None
      | 1 -> Some (get_value c)
      | _ -> err "decode: bad option tag"
    in
    Mn_accept { inst; v }
  | 34 ->
    let inst = get_int c in
    let v =
      match get_byte c with
      | 0 -> None
      | 1 -> Some (get_value c)
      | _ -> err "decode: bad option tag"
    in
    Mn_learn { inst; v }
  | 35 ->
    let epoch = get_int c in
    let inst = get_int c in
    let v = get_value c in
    Cp_accept { epoch; inst; v }
  | 36 ->
    let epoch = get_int c in
    let inst = get_int c in
    let v = get_value c in
    Cp_accepted { epoch; inst; v }
  | 37 ->
    let epoch = get_int c in
    let inst = get_int c in
    let v = get_value c in
    Cp_learn { epoch; inst; v }
  | 38 ->
    let epoch = get_int c in
    let n = get_count c ~min_elem:25 in
    let accepted = get_list c n get_iv in
    Cp_state { epoch; accepted }
  | 39 ->
    let inst = get_int c in
    let v = get_value c in
    Tp_prepare { inst; v }
  | 40 ->
    let inst = get_int c in
    Tp_ack { inst }
  | 41 ->
    let inst = get_int c in
    let v = get_value c in
    Tp_commit { inst; v }
  | 42 ->
    let inst = get_int c in
    Tp_commit_ack { inst }
  | 43 ->
    let inst = get_int c in
    Tp_rollback { inst }
  | 44 ->
    let inst = get_int c in
    Tp_nack { inst }
  | 45 ->
    let pn = get_pn c in
    let sent = get_int c in
    Le_renew { pn; sent }
  | 46 ->
    let pn = get_pn c in
    let sent = get_int c in
    Le_grant { pn; sent }
  | _ -> err "decode: unknown message tag"

let decode buf ~pos ~len =
  if pos < 0 || len < 1 || pos + len > Bytes.length buf then
    err "decode: bad bounds";
  let c = { buf; limit = pos + len; pos } in
  let m = get_msg c in
  if c.pos <> c.limit then err "decode: trailing bytes";
  m
