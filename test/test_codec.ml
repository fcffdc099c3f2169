open Plookup
open Plookup_store

let bitset_of ids capacity =
  let bits = Plookup_util.Bitset.create capacity in
  List.iter (Plookup_util.Bitset.add bits) ids;
  bits

let roundtrip msg =
  match Codec.decode (Codec.encode msg) with
  | Ok decoded -> decoded
  | Error e -> Alcotest.failf "decode failed: %s" e

let check_msg expected =
  let got = roundtrip expected in
  if got <> expected then
    Alcotest.failf "roundtrip changed %s into %s"
      (Format.asprintf "%a" Msg.pp expected)
      (Format.asprintf "%a" Msg.pp got)

let test_message_roundtrips () =
  List.iter check_msg
    [ Msg.place [];
      Msg.place [ Entry.v 0; Entry.v ~payload:"10.0.0.1:8080" 1; Entry.v 300 ];
      Msg.add (Entry.v 5);
      Msg.add (Entry.v ~payload:"" 5);
      Msg.delete (Entry.v 123456789);
      Msg.lookup 0;
      Msg.lookup 35;
      Msg.lookup 1_000_000;
      Msg.store (Entry.v ~payload:"x" 1);
      Msg.store_batch [ Entry.v 1; Entry.v 2 ];
      Msg.remove (Entry.v 9);
      Msg.add_sampled (Entry.v 77);
      Msg.remove_counted (Entry.v 78);
      Msg.fetch_candidate [];
      Msg.fetch_candidate [ 1; 2; 3; 1000 ];
      Msg.sync_add (Entry.v ~payload:"replica" 3);
      Msg.sync_delete (Entry.v 4);
      Msg.sync_state;
      Msg.digest_request (bitset_of [] 1);
      Msg.digest_request (bitset_of [ 0; 3; 63; 64 ] 70);
      Msg.sync_fix [] [];
      Msg.sync_fix [ Entry.v 1; Entry.v ~payload:"p" 2 ] [ 7; 8; 9 ];
      Msg.digest_pull;
      Msg.repair_store (Entry.v ~payload:"sub" 21) ]

let test_reply_roundtrips () =
  List.iter
    (fun reply ->
      match Codec.decode_reply (Codec.encode_reply reply) with
      | Ok got when got = reply -> ()
      | Ok _ -> Alcotest.fail "reply roundtrip changed value"
      | Error e -> Alcotest.failf "reply decode failed: %s" e)
    [ Msg.Ack;
      Msg.Entries [];
      Msg.Entries [ Entry.v 4; Entry.v ~payload:"host" 5 ];
      Msg.Candidate None;
      Msg.Candidate (Some (Entry.v 1));
      Msg.Digest (bitset_of [] 1);
      Msg.Digest (bitset_of [ 2; 5; 100 ] 128);
      Msg.Busy ]

let test_empty_vs_absent_payload () =
  (match roundtrip (Msg.add (Entry.v 1)) with
  | Msg.Data (Msg.Add e) ->
    Alcotest.(check (option string)) "absent stays absent" None (Entry.payload e)
  | _ -> Alcotest.fail "wrong constructor");
  match roundtrip (Msg.add (Entry.v ~payload:"" 1)) with
  | Msg.Data (Msg.Add e) ->
    Alcotest.(check (option string)) "empty stays empty" (Some "") (Entry.payload e)
  | _ -> Alcotest.fail "wrong constructor"

(* Nine-byte varints: [minus_one] sets every bit up to the sign bit and
   decodes as -1 unless rejected; [max_int_varint] is the largest legal
   value, so a payload length built from it overflows [pos + len]. *)
let minus_one = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"
let max_int_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x3f"

let varint v =
  let buf = Buffer.create 9 in
  let rec go v =
    if v < 0x80 then Buffer.add_uint8 buf v
    else begin
      Buffer.add_uint8 buf (0x80 lor (v land 0x7f));
      go (v lsr 7)
    end
  in
  go v;
  Buffer.contents buf

(* A digest request ("\x0e") or digest reply ("\x68") declaring
   [capacity] and no members. *)
let digest tag capacity = tag ^ varint capacity ^ "\x00"

(* Bytes allocated by [f ()].  The minor heap is emptied first, so the
   call itself cannot trigger a minor collection: on OCaml 5.1 one inside
   the measured call inflates the count by most of a minor heap. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let test_malformed_inputs () =
  let limit = Codec.max_digest_capacity in
  let rejects decode pp s =
    match decode s with
    | Error _ ->
      let cost = allocated (fun () -> decode s) in
      if cost > 1024. then Alcotest.failf "rejecting %S allocated %.0f bytes" s cost
    | Ok v -> Alcotest.failf "accepted garbage as %s" (Format.asprintf "%a" pp v)
  in
  List.iter (rejects Codec.decode Msg.pp)
    [ ""; "\xff"; "\x04" (* lookup with no varint *); "\x01\xff" (* truncated count *);
      "\x01\x02\x01\x00" (* count 2, one entry *);
      "\x02\x01\x05abc" (* payload shorter than declared *);
      "\x02\x00" ^ minus_one (* add, negative payload length *);
      "\x02\x00" ^ max_int_varint (* add, payload length max_int *);
      "\x02" ^ minus_one ^ "\x00" (* add, entry id -1 *);
      "\x04" ^ minus_one (* lookup, t = -1 *);
      "\x10\x00\x00\x0b\x00" (* the retired tag 16, once a hint *);
      digest "\x0e" (1 lsl 33) (* digest request, a 1 GiB bitset *);
      digest "\x0e" (1 lsl 40) (* digest request, a 128 GiB bitset *);
      digest "\x0e" (limit + 1) ];
  List.iter (rejects Codec.decode_reply Msg.pp_reply)
    [ "\x65\x01\x00" ^ minus_one (* entries, negative payload length *);
      "\x65\x01\x00" ^ max_int_varint (* entries, payload length max_int *);
      "\x65\x01" ^ minus_one ^ "\x00" (* entries, entry id -1 *);
      "\x67" ^ minus_one ^ "\x00" (* candidate, entry id -1 *);
      digest "\x68" (1 lsl 33) (* digest, a 1 GiB bitset *);
      digest "\x68" (1 lsl 40) (* digest, a 128 GiB bitset *);
      digest "\x68" (limit + 1) ];
  (* The limit itself is a legal capacity, both ways. *)
  let at_limit = bitset_of [ limit - 1 ] limit in
  Alcotest.(check bool) "digest request at the limit" true
    (Codec.decode (Codec.encode (Msg.digest_request at_limit))
    = Ok (Msg.digest_request at_limit));
  Alcotest.(check bool) "digest at the limit" true
    (Codec.decode_reply (Codec.encode_reply (Msg.Digest at_limit)) = Ok (Msg.Digest at_limit));
  Alcotest.(check bool) "empty digest at the limit" true
    (Result.is_ok (Codec.decode (digest "\x0e" limit)));
  let over = Plookup_util.Bitset.create (limit + 1) in
  Alcotest.check_raises "encode refuses a digest request over the limit"
    (Invalid_argument "Codec: digest capacity above max_digest_capacity") (fun () ->
      ignore (Codec.encode (Msg.digest_request over)));
  Alcotest.check_raises "encode_reply refuses a digest over the limit"
    (Invalid_argument "Codec: digest capacity above max_digest_capacity") (fun () ->
      ignore (Codec.encode_reply (Msg.Digest over)))

let test_trailing_bytes_rejected () =
  let good = Codec.encode (Msg.lookup 3) in
  match Codec.decode (good ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing bytes"

let test_framing () =
  let bodies = [ "hello"; ""; Codec.encode (Msg.lookup 9) ] in
  let stream = String.concat "" (List.map Codec.frame bodies) in
  let rec read pos acc =
    if pos = String.length stream then List.rev acc
    else
      match Codec.unframe stream ~pos with
      | Ok (body, pos) -> read pos (body :: acc)
      | Error e -> Alcotest.failf "unframe: %s" e
  in
  Alcotest.(check (list string)) "framed stream roundtrips" bodies (read 0 [])

let test_unframe_truncated () =
  (match Codec.unframe "\x02\x00" ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated header");
  match Codec.unframe "\x05\x00\x00\x00abc" ~pos:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated body"

let gen_entry =
  QCheck2.Gen.(
    map2
      (fun id payload -> Entry.v ?payload id)
      (int_range 0 1_000_000)
      (option (string_size ~gen:printable (int_range 0 30))))

(* One generator per constructor of each plane, so exhaustiveness is
   checked by the compiler: extending a plane type breaks the
   corresponding [gen_*] match below until a generator is added. *)
let gen_data =
  QCheck2.Gen.(
    oneof
      [ map Msg.place (list_size (int_range 0 20) gen_entry);
        map Msg.add gen_entry;
        map Msg.delete gen_entry;
        map Msg.lookup (int_range 0 10_000) ])

let gen_strategy =
  QCheck2.Gen.(
    oneof
      [ map Msg.store gen_entry;
        map Msg.store_batch (list_size (int_range 0 20) gen_entry);
        map Msg.remove gen_entry;
        map Msg.add_sampled gen_entry;
        map Msg.remove_counted gen_entry;
        map Msg.fetch_candidate (list_size (int_range 0 20) (int_range 0 5000));
        map Msg.sync_add gen_entry;
        map Msg.sync_delete gen_entry;
        return Msg.sync_state ])

let gen_repair =
  QCheck2.Gen.(
    oneof
      [ map
          (fun ids -> Msg.digest_request (bitset_of ids 600))
          (list_size (int_range 0 30) (int_range 0 599));
        map2 Msg.sync_fix
          (list_size (int_range 0 10) gen_entry)
          (list_size (int_range 0 10) (int_range 0 5000));
        return Msg.digest_pull;
        map Msg.repair_store gen_entry ])

let gen_msg = QCheck2.Gen.oneof [ gen_data; gen_strategy; gen_repair ]

(* Same exhaustiveness discipline for the reply plane: extending
   [Msg.reply] breaks this match until a generator case is added. *)
let _reply_generators_are_exhaustive : Msg.reply -> unit = function
  | Msg.Ack | Msg.Entries _ | Msg.Candidate _ | Msg.Digest _ | Msg.Busy -> ()

let gen_reply =
  QCheck2.Gen.(
    oneof
      [ return Msg.Ack;
        map (fun es -> Msg.Entries es) (list_size (int_range 0 20) gen_entry);
        map (fun e -> Msg.Candidate e) (option gen_entry);
        map
          (fun ids -> Msg.Digest (bitset_of ids 600))
          (list_size (int_range 0 30) (int_range 0 599));
        return Msg.Busy ])

let prop_reply_roundtrip =
  Helpers.qcheck ~count:300 "reply decode . encode = id" gen_reply (fun reply ->
      Codec.decode_reply (Codec.encode_reply reply) = Ok reply)

(* The plane split is type-level only: each message still decodes back
   into the plane it was encoded from. *)
let prop_plane_stable =
  Helpers.qcheck ~count:300 "planes survive the roundtrip" gen_msg (fun msg ->
      match (msg, Codec.decode (Codec.encode msg)) with
      | Msg.Data _, Ok (Msg.Data _)
      | Msg.Strategy _, Ok (Msg.Strategy _)
      | Msg.Repair _, Ok (Msg.Repair _) -> true
      | _ -> false)

let prop_roundtrip =
  Helpers.qcheck ~count:500 "decode . encode = id" gen_msg (fun msg ->
      Codec.decode (Codec.encode msg) = Ok msg)

(* Valid encodings of either plane, then damaged: one byte overwritten,
   one byte inserted, the tail cut off, or the varint at some position
   replaced by one of up to 62 bits.  Half the damage lands right after
   the tag byte, where each body's leading count or capacity sits. *)
let gen_mutated =
  QCheck2.Gen.(
    let* s = oneof [ map Codec.encode gen_msg; map Codec.encode_reply gen_reply ] in
    let n = String.length s in
    let* pos = oneof [ return (min 1 n); int_bound n ] in
    let* c = char in
    let* bits = int_range 0 62 in
    let* v = map (fun x -> x lsr (62 - bits)) (pint ~origin:0) in
    let before = String.sub s 0 pos and after k = String.sub s (pos + k) (n - pos - k) in
    let rec varint_end i = if i < n && Char.code s.[i] >= 0x80 then varint_end (i + 1) else i in
    oneofl
      [ (if pos < n then before ^ String.make 1 c ^ after 1 else s);
        before ^ String.make 1 c ^ after 0;
        before;
        before ^ varint v ^ after (min n (varint_end pos + 1) - pos) ])

(* Decoding allocates at most one maximal digest per input byte,
   whatever capacity the input declares. *)
let prop_decode_never_raises =
  Helpers.qcheck ~count:5000 "decode is total on arbitrary bytes"
    QCheck2.Gen.(oneof [ string_size ~gen:char (int_range 0 50); gen_mutated ])
    (fun s ->
      let cost =
        allocated (fun () ->
            ( (match Codec.decode s with Ok _ | Error _ -> ()),
              match Codec.decode_reply s with Ok _ | Error _ -> () ))
      in
      cost <= float_of_int ((String.length s + 1) * (Codec.max_digest_capacity / 8)))

let prop_framed_roundtrip =
  Helpers.qcheck ~count:200 "unframe . frame = id"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 100))
    (fun body ->
      match Codec.unframe (Codec.frame body) ~pos:0 with
      | Ok (decoded, pos) -> decoded = body && pos = String.length body + 4
      | Error _ -> false)

let () =
  Helpers.run "codec"
    [ ( "codec",
        [ Alcotest.test_case "message roundtrips" `Quick test_message_roundtrips;
          Alcotest.test_case "reply roundtrips" `Quick test_reply_roundtrips;
          Alcotest.test_case "empty vs absent payload" `Quick test_empty_vs_absent_payload;
          Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "unframe truncated" `Quick test_unframe_truncated;
          prop_roundtrip;
          prop_reply_roundtrip;
          prop_plane_stable;
          prop_decode_never_raises;
          prop_framed_roundtrip ] ) ]
