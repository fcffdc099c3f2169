type entry = (module Strategy_intf.S)

let entries : entry list ref = ref []

let meta_of (module S : Strategy_intf.S) = S.meta

let register (module S : Strategy_intf.S) =
  let m = S.meta in
  if m.Strategy_intf.arity < 0 || m.Strategy_intf.arity > 2 then
    invalid_arg (Printf.sprintf "Strategy_registry.register: %s: unsupported arity" m.name);
  if m.Strategy_intf.keys = [] then
    invalid_arg (Printf.sprintf "Strategy_registry.register: %s: no parse keys" m.name);
  List.iter
    (fun (module E : Strategy_intf.S) ->
      if String.lowercase_ascii E.meta.Strategy_intf.name
         = String.lowercase_ascii m.Strategy_intf.name
      then
        invalid_arg
          (Printf.sprintf "Strategy_registry.register: duplicate strategy %s" m.name);
      List.iter
        (fun k ->
          if List.mem k E.meta.Strategy_intf.keys then
            invalid_arg
              (Printf.sprintf "Strategy_registry.register: key %S already taken by %s" k
                 E.meta.Strategy_intf.name))
        m.Strategy_intf.keys)
    !entries;
  entries := (module S : Strategy_intf.S) :: !entries

let all () =
  List.sort
    (fun a b ->
      let ma = meta_of a and mb = meta_of b in
      match compare ma.Strategy_intf.rank mb.Strategy_intf.rank with
      | 0 -> compare ma.Strategy_intf.name mb.Strategy_intf.name
      | c -> c)
    !entries

let find name =
  let lower = String.lowercase_ascii (String.trim name) in
  List.find_opt
    (fun (module S : Strategy_intf.S) ->
      String.lowercase_ascii S.meta.Strategy_intf.name = lower
      || List.mem lower S.meta.Strategy_intf.keys)
    !entries

let find_exn name =
  match find name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Strategy_registry: unknown strategy %S" name)

(* The shape a parameterized spelling takes, for error messages and the
   CLI listing: "fixed-X", "round-Y", "roundrobinha-YxK", "full".  The
   placeholder letters come from the "Y = ..., K = ..." convention in
   [param_doc]. *)
let spelling (m : Strategy_intf.meta) =
  let key = List.hd m.keys in
  let letters =
    List.filter_map
      (fun part ->
        let part = String.trim part in
        if String.length part >= 3 && part.[1] = ' ' && part.[2] = '=' then
          Some (String.make 1 part.[0])
        else None)
      (String.split_on_char ',' m.param_doc)
  in
  match (m.arity, letters) with
  | 0, _ -> key
  | 1, l :: _ -> key ^ "-" ^ l
  | 1, [] -> key ^ "-X"
  | _, [ l1; l2 ] -> key ^ "-" ^ l1 ^ "x" ^ l2
  | _, _ -> key ^ "-YxK"

(* Levenshtein distance, for did-you-mean suggestions on typos. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest key =
  let candidates =
    List.concat_map (fun e -> (meta_of e).Strategy_intf.keys) !entries
  in
  let scored =
    List.filter_map
      (fun k ->
        let d = edit_distance key k in
        if d <= 2 && d < String.length k then Some (d, k) else None)
      candidates
  in
  match List.sort compare scored with (_, best) :: _ -> Some best | [] -> None

let parse_error s key =
  let hint = match suggest key with Some k -> Printf.sprintf " (did you mean %S?)" k | None -> "" in
  let known =
    String.concat ", " (List.map (fun e -> spelling (meta_of e)) (all ()))
  in
  Error (Printf.sprintf "unknown strategy %S%s; known: %s" s hint known)

let parse s =
  let lower = String.lowercase_ascii (String.trim s) in
  let key, raw_params =
    match String.index_opt lower '-' with
    | None -> (lower, [])
    | Some i ->
      ( String.sub lower 0 i,
        String.split_on_char 'x' (String.sub lower (i + 1) (String.length lower - i - 1)) )
  in
  match find key with
  | None -> parse_error s key
  | Some (module S) -> (
    let m = S.meta in
    let params = List.map int_of_string_opt raw_params in
    match (m.Strategy_intf.arity, params) with
    | 0, [] -> Ok (m.Strategy_intf.name, [])
    | 1, [ Some p ] when p > 0 -> Ok (m.Strategy_intf.name, [ p ])
    | 2, [ Some p; Some q ] when p > 0 && q > 0 -> Ok (m.Strategy_intf.name, [ p; q ])
    | _ ->
      Error
        (Printf.sprintf "strategy %S: %s expects the form %s%s" s m.Strategy_intf.name
           (spelling m)
           (if m.Strategy_intf.param_doc = "" then ""
            else " where " ^ m.Strategy_intf.param_doc)))
