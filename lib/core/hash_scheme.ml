open Plookup_store
open Plookup_util

(* Hash functions [1..r] of [id], in order, consed onto [acc]: built
   from the last one back, so no closure is allocated per entry. *)
let rec hashes ~seed ~n ~id r acc =
  if r = 0 then acc
  else hashes ~seed ~n ~id (r - 1) (Rng.hash_in_range ~seed ~salt:r ~value:id n :: acc)

let create cluster ~y =
  if y < 1 then invalid_arg "Hash_scheme.create: y must be at least 1";
  let seed = Cluster.seed cluster and n = Cluster.n cluster in
  Owner_placement.create cluster ~targets:(fun e -> hashes ~seed ~n ~id:(Entry.id e) y [])

module Strategy = Owner_placement.Strategy (struct
  let meta =
    { Strategy_intf.name = "Hash";
      keys = [ "hash" ];
      arity = 1;
      param_doc = "Y = hash functions placing each entry";
      storage_doc = "h*n*(1-(1-1/n)^y)";
      ablation = false;
      rank = 50 }

  let analytic_storage ~n ~h ~params =
    let y = Strategy_common.one_param ~who:"Hash" ~what:"y" params in
    let fn = float_of_int n in
    float_of_int h *. fn *. (1. -. ((1. -. (1. /. fn)) ** float_of_int y))

  let params_for_budget ~n:_ ~h ~total ~params:_ = [ max 1 (total / h) ]

  let create cluster ~params =
    create cluster ~y:(Strategy_common.one_param ~who:"Hash_scheme.create" ~what:"y" params)
end)

let () = Strategy_registry.register (module Strategy)
