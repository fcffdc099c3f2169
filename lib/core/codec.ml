open Plookup_store
open Plookup_util

(* Varints: LEB128, unsigned, for non-negative ints.  A ninth byte can
   reach the sign bit, so decoding rejects any value that does not read
   back as a non-negative int. *)
let put_varint buf v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_uint8 buf v
    else begin
      Buffer.add_uint8 buf (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v

let get_varint s ~pos =
  let len = String.length s in
  let rec go pos shift acc =
    if pos >= len then Error "varint: truncated"
    else if shift > 62 then Error "varint: overflow"
    else begin
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if acc < 0 then Error "varint: overflow"
      else if b land 0x80 = 0 then Ok (acc, pos + 1)
      else go (pos + 1) (shift + 7) acc
    end
  in
  go pos 0 0

let ( let* ) = Result.bind

(* Entries: id, then payload tagged by length+1 so the absent payload
   (0) and the empty payload (1) stay distinct. *)
let encode_entry buf e =
  put_varint buf (Entry.id e);
  match Entry.payload e with
  | None -> put_varint buf 0
  | Some p ->
    put_varint buf (String.length p + 1);
    Buffer.add_string buf p

let decode_entry s ~pos =
  let* id, pos = get_varint s ~pos in
  let* tagged_len, pos = get_varint s ~pos in
  if tagged_len = 0 then Ok (Entry.v id, pos)
  else begin
    let len = tagged_len - 1 in
    if len > String.length s - pos then Error "entry payload: truncated"
    else Ok (Entry.v ~payload:(String.sub s pos len) id, pos + len)
  end

let put_entries buf entries =
  put_varint buf (List.length entries);
  List.iter (encode_entry buf) entries

let get_entries s ~pos =
  let* count, pos = get_varint s ~pos in
  if count > String.length s - pos then Error "entry list: count exceeds input"
  else begin
    let rec go k pos acc =
      if k = 0 then Ok (List.rev acc, pos)
      else
        let* e, pos = decode_entry s ~pos in
        go (k - 1) pos (e :: acc)
    in
    go count pos []
  end

let put_ints buf ids =
  put_varint buf (List.length ids);
  List.iter (put_varint buf) ids

let get_ints s ~pos =
  let* count, pos = get_varint s ~pos in
  if count > String.length s - pos then Error "int list: count exceeds input"
  else begin
    let rec go k pos acc =
      if k = 0 then Ok (List.rev acc, pos)
      else
        let* v, pos = get_varint s ~pos in
        go (k - 1) pos (v :: acc)
    in
    go count pos []
  end

(* Bitsets travel as capacity + member list; members are sparse relative
   to capacity in every digest use, so the id list beats raw words.  The
   decoded bitset is dense, so the declared capacity is what decoding
   allocates: it is checked against the limit before anything else. *)
let max_digest_capacity = 1 lsl 20

let put_bitset buf bits =
  if Bitset.capacity bits > max_digest_capacity then
    invalid_arg "Codec: digest capacity above max_digest_capacity";
  put_varint buf (Bitset.capacity bits);
  put_ints buf (Bitset.to_list bits)

let get_bitset s ~pos =
  let* capacity, pos = get_varint s ~pos in
  if capacity > max_digest_capacity then Error "bitset: capacity above limit"
  else
    let* ids, pos = get_ints s ~pos in
    match Bitset.of_list capacity ids with
    | bits -> Ok (bits, pos)
    | exception Invalid_argument _ -> Error "bitset: member out of range"

(* Message tags. *)
let tag_place = 1
let tag_add = 2
let tag_delete = 3
let tag_lookup = 4
let tag_store = 5
let tag_store_batch = 6
let tag_remove = 7
let tag_add_sampled = 8
let tag_remove_counted = 9
let tag_fetch_candidate = 10
let tag_sync_add = 11
let tag_sync_delete = 12
let tag_sync_state = 13
let tag_digest_request = 14
let tag_sync_fix = 15
(* Tag 16 is retired: it decodes as an unknown tag and is not reused. *)
let tag_digest_pull = 17
let tag_repair_store = 18

(* The plane wrappers are a type-level split only: on the wire a message
   is still one flat tag byte, so old captures decode unchanged. *)
let encode_data buf (d : Msg.data) =
  match d with
  | Msg.Place entries ->
    Buffer.add_uint8 buf tag_place;
    put_entries buf entries
  | Msg.Add e ->
    Buffer.add_uint8 buf tag_add;
    encode_entry buf e
  | Msg.Delete e ->
    Buffer.add_uint8 buf tag_delete;
    encode_entry buf e
  | Msg.Lookup t ->
    Buffer.add_uint8 buf tag_lookup;
    put_varint buf t

let encode_strategy buf (s : Msg.strategy) =
  match s with
  | Msg.Store e ->
    Buffer.add_uint8 buf tag_store;
    encode_entry buf e
  | Msg.Store_batch entries ->
    Buffer.add_uint8 buf tag_store_batch;
    put_entries buf entries
  | Msg.Remove e ->
    Buffer.add_uint8 buf tag_remove;
    encode_entry buf e
  | Msg.Add_sampled e ->
    Buffer.add_uint8 buf tag_add_sampled;
    encode_entry buf e
  | Msg.Remove_counted e ->
    Buffer.add_uint8 buf tag_remove_counted;
    encode_entry buf e
  | Msg.Fetch_candidate ids ->
    Buffer.add_uint8 buf tag_fetch_candidate;
    put_ints buf ids
  | Msg.Sync_add e ->
    Buffer.add_uint8 buf tag_sync_add;
    encode_entry buf e
  | Msg.Sync_delete e ->
    Buffer.add_uint8 buf tag_sync_delete;
    encode_entry buf e
  | Msg.Sync_state -> Buffer.add_uint8 buf tag_sync_state

let encode_repair buf (r : Msg.repair) =
  match r with
  | Msg.Digest_request bits ->
    Buffer.add_uint8 buf tag_digest_request;
    put_bitset buf bits
  | Msg.Sync_fix (missing, retract) ->
    Buffer.add_uint8 buf tag_sync_fix;
    put_entries buf missing;
    put_ints buf retract
  | Msg.Digest_pull -> Buffer.add_uint8 buf tag_digest_pull
  | Msg.Repair_store e ->
    Buffer.add_uint8 buf tag_repair_store;
    encode_entry buf e

let encode msg =
  let buf = Buffer.create 32 in
  (match (msg : Msg.t) with
  | Msg.Data d -> encode_data buf d
  | Msg.Strategy s -> encode_strategy buf s
  | Msg.Repair r -> encode_repair buf r);
  Buffer.contents buf

let expect_end label pos s k =
  if pos = String.length s then k else Error (label ^ ": trailing bytes")

let decode s =
  if String.length s = 0 then Error "message: empty"
  else begin
    let tag = Char.code s.[0] in
    let pos = 1 in
    if tag = tag_place then
      let* entries, pos = get_entries s ~pos in
      expect_end "place" pos s (Ok (Msg.place entries))
    else if tag = tag_add then
      let* e, pos = decode_entry s ~pos in
      expect_end "add" pos s (Ok (Msg.add e))
    else if tag = tag_delete then
      let* e, pos = decode_entry s ~pos in
      expect_end "delete" pos s (Ok (Msg.delete e))
    else if tag = tag_lookup then
      let* t, pos = get_varint s ~pos in
      expect_end "lookup" pos s (Ok (Msg.lookup t))
    else if tag = tag_store then
      let* e, pos = decode_entry s ~pos in
      expect_end "store" pos s (Ok (Msg.store e))
    else if tag = tag_store_batch then
      let* entries, pos = get_entries s ~pos in
      expect_end "store_batch" pos s (Ok (Msg.store_batch entries))
    else if tag = tag_remove then
      let* e, pos = decode_entry s ~pos in
      expect_end "remove" pos s (Ok (Msg.remove e))
    else if tag = tag_add_sampled then
      let* e, pos = decode_entry s ~pos in
      expect_end "add_sampled" pos s (Ok (Msg.add_sampled e))
    else if tag = tag_remove_counted then
      let* e, pos = decode_entry s ~pos in
      expect_end "remove_counted" pos s (Ok (Msg.remove_counted e))
    else if tag = tag_fetch_candidate then
      let* ids, pos = get_ints s ~pos in
      expect_end "fetch_candidate" pos s (Ok (Msg.fetch_candidate ids))
    else if tag = tag_sync_add then
      let* e, pos = decode_entry s ~pos in
      expect_end "sync_add" pos s (Ok (Msg.sync_add e))
    else if tag = tag_sync_delete then
      let* e, pos = decode_entry s ~pos in
      expect_end "sync_delete" pos s (Ok (Msg.sync_delete e))
    else if tag = tag_sync_state then expect_end "sync_state" pos s (Ok Msg.sync_state)
    else if tag = tag_digest_request then
      let* bits, pos = get_bitset s ~pos in
      expect_end "digest_request" pos s (Ok (Msg.digest_request bits))
    else if tag = tag_sync_fix then
      let* missing, pos = get_entries s ~pos in
      let* retract, pos = get_ints s ~pos in
      expect_end "sync_fix" pos s (Ok (Msg.sync_fix missing retract))
    else if tag = tag_digest_pull then expect_end "digest_pull" pos s (Ok Msg.digest_pull)
    else if tag = tag_repair_store then
      let* e, pos = decode_entry s ~pos in
      expect_end "repair_store" pos s (Ok (Msg.repair_store e))
    else Error (Printf.sprintf "message: unknown tag %d" tag)
  end

(* Reply tags. *)
let tag_ack = 100
let tag_entries = 101
let tag_candidate_none = 102
let tag_candidate_some = 103
let tag_digest = 104
let tag_busy = 105

let encode_reply reply =
  let buf = Buffer.create 16 in
  (match (reply : Msg.reply) with
  | Msg.Ack -> Buffer.add_uint8 buf tag_ack
  | Msg.Entries entries ->
    Buffer.add_uint8 buf tag_entries;
    put_entries buf entries
  | Msg.Candidate None -> Buffer.add_uint8 buf tag_candidate_none
  | Msg.Candidate (Some e) ->
    Buffer.add_uint8 buf tag_candidate_some;
    encode_entry buf e
  | Msg.Digest bits ->
    Buffer.add_uint8 buf tag_digest;
    put_bitset buf bits
  | Msg.Busy -> Buffer.add_uint8 buf tag_busy);
  Buffer.contents buf

let decode_reply s =
  if String.length s = 0 then Error "reply: empty"
  else begin
    let tag = Char.code s.[0] in
    let pos = 1 in
    if tag = tag_ack then expect_end "ack" pos s (Ok Msg.Ack)
    else if tag = tag_entries then
      let* entries, pos = get_entries s ~pos in
      expect_end "entries" pos s (Ok (Msg.Entries entries))
    else if tag = tag_candidate_none then
      expect_end "candidate" pos s (Ok (Msg.Candidate None))
    else if tag = tag_candidate_some then
      let* e, pos = decode_entry s ~pos in
      expect_end "candidate" pos s (Ok (Msg.Candidate (Some e)))
    else if tag = tag_digest then
      let* bits, pos = get_bitset s ~pos in
      expect_end "digest" pos s (Ok (Msg.Digest bits))
    else if tag = tag_busy then expect_end "busy" pos s (Ok Msg.Busy)
    else Error (Printf.sprintf "reply: unknown tag %d" tag)
  end

let frame body =
  let buf = Buffer.create (String.length body + 4) in
  Buffer.add_int32_le buf (Int32.of_int (String.length body));
  Buffer.add_string buf body;
  Buffer.contents buf

let unframe s ~pos =
  if pos + 4 > String.length s then Error "frame: truncated header"
  else begin
    let len = Int32.to_int (String.get_int32_le s pos) in
    if len < 0 then Error "frame: negative length"
    else if pos + 4 + len > String.length s then Error "frame: truncated body"
    else Ok (String.sub s (pos + 4) len, pos + 4 + len)
  end
