open Plookup_store
open Plookup_util

type data =
  | Place of Entry.t list
  | Add of Entry.t
  | Delete of Entry.t
  | Lookup of int

type strategy =
  | Store of Entry.t
  | Store_batch of Entry.t list
  | Remove of Entry.t
  | Add_sampled of Entry.t
  | Remove_counted of Entry.t
  | Fetch_candidate of int list
  | Sync_add of Entry.t
  | Sync_delete of Entry.t
  | Sync_state

type repair =
  | Digest_request of Bitset.t
  | Sync_fix of Entry.t list * int list
  | Digest_pull
  | Repair_store of Entry.t

type t = Data of data | Strategy of strategy | Repair of repair

type reply =
  | Ack
  | Entries of Entry.t list
  | Candidate of Entry.t option
  | Digest of Bitset.t
  | Busy

(* Smart constructors: send sites say [Msg.store e] instead of spelling
   the plane wrapper out. *)
let place entries = Data (Place entries)
let add e = Data (Add e)
let delete e = Data (Delete e)
let lookup t = Data (Lookup t)
let store e = Strategy (Store e)
let store_batch entries = Strategy (Store_batch entries)
let remove e = Strategy (Remove e)
let add_sampled e = Strategy (Add_sampled e)
let remove_counted e = Strategy (Remove_counted e)
let fetch_candidate ids = Strategy (Fetch_candidate ids)
let sync_add e = Strategy (Sync_add e)
let sync_delete e = Strategy (Sync_delete e)
let sync_state = Strategy Sync_state
let digest_request bits = Repair (Digest_request bits)
let sync_fix missing retract = Repair (Sync_fix (missing, retract))
let digest_pull = Repair Digest_pull
let repair_store e = Repair (Repair_store e)

let plane_names = [| "data"; "strategy"; "repair" |]
let plane_index = function Data _ -> 0 | Strategy _ -> 1 | Repair _ -> 2

(* Intern every (plane, label) pair up front so the per-message coder is
   a single allocation-free match returning a precomputed code. *)
let trace_coder tr =
  let data = plane_names.(0) and strategy = plane_names.(1) and repair = plane_names.(2) in
  let pm plane msg = Plookup_obs.Trace.intern_message tr ~plane ~msg in
  let c_place = pm data "place" in
  let c_add = pm data "add" in
  let c_delete = pm data "delete" in
  let c_lookup = pm data "lookup" in
  let c_store = pm strategy "store" in
  let c_store_batch = pm strategy "store_batch" in
  let c_remove = pm strategy "remove" in
  let c_add_sampled = pm strategy "add_sampled" in
  let c_remove_counted = pm strategy "remove_counted" in
  let c_fetch_candidate = pm strategy "fetch_candidate" in
  let c_sync_add = pm strategy "sync_add" in
  let c_sync_delete = pm strategy "sync_delete" in
  let c_sync_state = pm strategy "sync_state" in
  let c_digest_request = pm repair "digest_request" in
  let c_sync_fix = pm repair "sync_fix" in
  let c_digest_pull = pm repair "digest_pull" in
  let c_repair_store = pm repair "repair_store" in
  function
  | Data (Place _) -> c_place
  | Data (Add _) -> c_add
  | Data (Delete _) -> c_delete
  | Data (Lookup _) -> c_lookup
  | Strategy (Store _) -> c_store
  | Strategy (Store_batch _) -> c_store_batch
  | Strategy (Remove _) -> c_remove
  | Strategy (Add_sampled _) -> c_add_sampled
  | Strategy (Remove_counted _) -> c_remove_counted
  | Strategy (Fetch_candidate _) -> c_fetch_candidate
  | Strategy (Sync_add _) -> c_sync_add
  | Strategy (Sync_delete _) -> c_sync_delete
  | Strategy Sync_state -> c_sync_state
  | Repair (Digest_request _) -> c_digest_request
  | Repair (Sync_fix _) -> c_sync_fix
  | Repair Digest_pull -> c_digest_pull
  | Repair (Repair_store _) -> c_repair_store
