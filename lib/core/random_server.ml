open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

type t = {
  cluster : Cluster.t;
  x : int;
  replacement_on_delete : bool;
  counts : int array; (* per-server local h counter *)
  mutable batch : Entry.t array;
      (* The [Store_batch] list, copied once per broadcast into a buffer
         grown to h once and shared by every receiving server: a
         placement allocates O(h) words and does O(h) copying, not
         O(n*h).  Each receiver draws its x-subset in place and undoes
         its swaps, so the buffer is back in list order for the next. *)
  mutable batch_len : int; (* h of the copied list *)
  mutable copied : Entry.t list;
      (* The list [batch] holds, recognised by physical equality; [] with
         [batch_len] 0 once the placement's broadcast has returned. *)
  mutable swaps : int array; (* each receiver's swap partners, for the undo *)
}

(* Fetch one entry this server lacks, probing other servers in random
   order — the replacement alternative of Section 5.3.  The entry being
   deleted is explicitly excluded: peers later in the broadcast order
   still hold it, and accepting it back would resurrect a dead entry. *)
let fetch_replacement t ~self ~deleted =
  let net = Cluster.net t.cluster in
  let local = Cluster.store t.cluster self in
  let have = Entry.id deleted :: Server_store.ids local in
  let peers = Probe_order.random_up ~keep:(fun i -> i <> self) t.cluster in
  let rec ask () =
    match Probe_order.next peers with
    | None -> ()
    | Some peer -> (
      match Net.send net ~src:(Net.Server self) ~dst:peer (Msg.fetch_candidate have) with
      | Some (Msg.Candidate (Some e)) -> if not (Server_store.add local e) then ask ()
      | Some (Msg.Candidate None | Msg.Ack | Msg.Entries _ | Msg.Digest _ | Msg.Busy) | None ->
        ask ())
  in
  ask ()

let copy_batch t entries =
  let h = List.length entries in
  (match entries with
  | e :: _ when Array.length t.batch < h -> t.batch <- Array.make h e
  | _ -> ());
  List.iteri (fun i e -> t.batch.(i) <- e) entries;
  t.batch_len <- h;
  t.copied <- entries

let swap (arr : Entry.t array) i j =
  let tmp = arr.(i) in
  arr.(i) <- arr.(j);
  arr.(j) <- tmp

let handle_data t dst _src (msg : Msg.data) : Msg.reply =
  let net = Cluster.net t.cluster in
  match msg with
  | Msg.Place entries ->
    Net.broadcast net ~src:(Net.Server dst) (Msg.store_batch entries);
    t.copied <- [];
    t.batch_len <- 0;
    Msg.Ack
  | Msg.Add e ->
    Net.broadcast net ~src:(Net.Server dst) (Msg.add_sampled e);
    Msg.Ack
  | Msg.Delete e ->
    Net.broadcast net ~src:(Net.Server dst) (Msg.remove_counted e);
    Msg.Ack
  | Msg.Lookup target -> Strategy_common.lookup_reply t.cluster dst target

let handle_strategy t dst _src (msg : Msg.strategy) : Msg.reply =
  let rng = Cluster.rng t.cluster in
  let local = Cluster.store t.cluster dst in
  match msg with
  | Msg.Store_batch entries ->
    (* Independently select a uniform random x-subset of the batch: the
       draws, the kept range and its order are [Rng.subset_in_place]'s
       over the list copied into [batch], but the [m] swaps are undone
       afterwards, so a receiver costs O(x) (O(h) only when it keeps more
       than half the batch) and the next receiver starts from the same
       list order without a fresh copy. *)
    Server_store.clear local;
    if entries != t.copied then copy_batch t entries;
    let h = t.batch_len and arr = t.batch in
    let k = Int.min t.x h in
    let m = Int.min k (h - k) in
    if Array.length t.swaps < m then t.swaps <- Array.make m 0;
    let swaps = t.swaps in
    for i = 0 to m - 1 do
      let j = i + Rng.int rng (h - i) in
      swaps.(i) <- j;
      swap arr i j
    done;
    let lo = if m = k then 0 else m in
    for i = lo to lo + k - 1 do
      ignore (Server_store.add local arr.(i))
    done;
    for i = m - 1 downto 0 do
      swap arr i swaps.(i)
    done;
    t.counts.(dst) <- h;
    Msg.Ack
  | Msg.Add_sampled e ->
    t.counts.(dst) <- t.counts.(dst) + 1;
    if Server_store.cardinal local < t.x then ignore (Server_store.add local e)
    else begin
      (* Reservoir step: keep the newcomer with probability x/h, evicting
         a uniform resident; the store holds x >= 1 entries here.
         [Int.max], not the polymorphic [max]: this runs on every copy
         of a broadcast. *)
      if Rng.bernoulli_ratio rng ~num:t.x ~den:(Int.max t.x t.counts.(dst)) then begin
        let victim = Server_store.nth local (Rng.int rng (Server_store.cardinal local)) in
        ignore (Server_store.remove local victim);
        ignore (Server_store.add local e)
      end
    end;
    Msg.Ack
  | Msg.Remove_counted e ->
    t.counts.(dst) <- Int.max 0 (t.counts.(dst) - 1);
    let had = Server_store.remove local e in
    if had && t.replacement_on_delete then fetch_replacement t ~self:dst ~deleted:e;
    Msg.Ack
  | Msg.Fetch_candidate excluded ->
    let table = Hashtbl.create (List.length excluded) in
    List.iter (fun id -> Hashtbl.replace table id ()) excluded;
    let candidate =
      Server_store.fold
        (fun e acc ->
          match acc with
          | Some _ -> acc
          | None -> if Hashtbl.mem table (Entry.id e) then None else Some e)
        local None
    in
    Msg.Candidate candidate
  | (Msg.Store _ | Msg.Remove _ | Msg.Sync_add _ | Msg.Sync_delete _ | Msg.Sync_state) as
    other ->
    Strategy_common.default_strategy t.cluster dst other

let handle t dst src (msg : Msg.t) : Msg.reply =
  match msg with
  | Msg.Data d -> handle_data t dst src d
  | Msg.Strategy s -> handle_strategy t dst src s
  | Msg.Repair _ -> Msg.Ack

let create ?(replacement_on_delete = false) cluster ~x =
  if x <= 0 then invalid_arg "Random_server.create: x must be positive";
  let counts = Array.make (Cluster.n cluster) 0 in
  let t =
    { cluster; x; replacement_on_delete; counts; batch = [||]; batch_len = 0; copied = [];
      swaps = [||] }
  in
  Net.set_handler (Cluster.net cluster) (fun dst src msg -> handle t dst src msg);
  t

let system_count t ~server =
  if server < 0 || server >= Cluster.n t.cluster then
    invalid_arg "Random_server.system_count: server out of range";
  t.counts.(server)

let place t entries = Strategy_common.to_random_server t.cluster (Msg.place (Entry.dedup entries))
let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)

let strategy_meta ~replacing =
  if replacing then
    { Strategy_intf.name = "RandomServerReplacing";
      keys = [ "randomserverreplacing"; "random_server_replacing" ];
      arity = 1;
      param_doc = "X = random entries kept per server (replaces on delete)";
      storage_doc = "x*n";
      ablation = true;
      rank = 35 }
  else
    { Strategy_intf.name = "RandomServer";
      keys = [ "randomserver"; "random_server"; "random" ];
      arity = 1;
      param_doc = "X = random entries kept per server";
      storage_doc = "x*n";
      ablation = false;
      rank = 30 }

module Make_strategy (M : sig
  val replacing : bool
end) =
struct
  type nonrec t = t

  let meta = strategy_meta ~replacing:M.replacing

  let analytic_storage ~n ~h ~params =
    let x = Strategy_common.one_param ~who:meta.Strategy_intf.name ~what:"x" params in
    float_of_int (min x h * n)

  let params_for_budget ~n ~h:_ ~total ~params:_ = [ max 1 (total / n) ]

  let create cluster ~params =
    create ~replacement_on_delete:M.replacing cluster
      ~x:(Strategy_common.one_param ~who:"Random_server.create" ~what:"x" params)

  let place t ?budget:_ entries = place t entries
  let add = add
  let delete = delete
  let discipline _ = Strategy_intf.Random
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan t = Strategy_intf.Free t.x
end

module Strategy = Make_strategy (struct let replacing = false end)
module Strategy_replacing = Make_strategy (struct let replacing = true end)

let () =
  Strategy_registry.register (module Strategy);
  Strategy_registry.register (module Strategy_replacing)
