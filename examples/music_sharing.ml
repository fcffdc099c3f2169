(* Music sharing: the paper's motivating Napster-style scenario.

   A directory maps song titles to the peers that host a copy.  Song
   popularity is Zipf-distributed; clients looking for a song only need
   a couple of peers to download from, so the directory answers with
   partial lookups.  We compare how evenly two strategies spread the
   download load over the hosting peers.

   Run with: dune exec examples/music_sharing.exe *)

open Plookup
open Plookup_store
open Plookup_util

let songs =
  [| "stairway-to-heaven"; "bohemian-rhapsody"; "hotel-california";
     "smells-like-teen-spirit"; "billie-jean"; "like-a-rolling-stone";
     "imagine"; "hey-jude"; "purple-haze"; "good-vibrations" |]

let peers_per_song = 40
let peer_count = 200
let downloads = 20_000
let sources_per_download = 2

(* Build the directory: each song is hosted by a random subset of peers. *)
let build config =
  let rng = Rng.create 7 in
  let directory = Directory.create ~seed:7 ~n:8 ~default:config () in
  Array.iter
    (fun song ->
      let peers = Array.init peer_count Fun.id in
      let lo = Rng.subset_in_place rng peers ~n:peer_count ~k:peers_per_song in
      let entries =
        List.init peers_per_song (fun i ->
            let p = peers.(lo + i) in
            Entry.v ~payload:(Printf.sprintf "peer-%d" p) p)
      in
      Directory.place directory ~key:song entries)
    songs;
  directory

(* Simulate downloads: pick a song by popularity, ask the directory for
   a couple of sources, and tally the per-peer load. *)
let simulate directory =
  let rng = Rng.create 99 in
  let load = Array.make peer_count 0 in
  let misses = ref 0 in
  for _ = 1 to downloads do
    let song = songs.(Dist.zipf_ranks rng ~n:(Array.length songs) ~alpha:1.0 - 1) in
    let r = Directory.partial_lookup directory ~key:song sources_per_download in
    if Lookup_result.satisfied r then
      List.iter (fun e -> load.(Entry.id e) <- load.(Entry.id e) + 1) r.Lookup_result.entries
    else incr misses
  done;
  (load, !misses)

let describe name directory =
  let load, misses = simulate directory in
  let hosting = Array.to_list load |> List.filter (fun c -> c > 0) in
  let loads = Array.of_list (List.map float_of_int hosting) in
  Format.printf "@.%s (storage %d copies)@." name (Directory.total_storage directory);
  Format.printf "  peers serving downloads : %d of %d hosts@." (List.length hosting)
    peer_count;
  Format.printf "  busiest peer            : %.0f downloads@." (snd (Stats.min_max loads));
  Format.printf "  load stddev / mean      : %.2f@."
    (Stats.stddev loads /. Stats.mean loads);
  Format.printf "  failed lookups          : %d@." misses;
  let histogram = Histogram.create ~lo:0. ~hi:(snd (Stats.min_max loads) +. 1.) ~bins:8 in
  Array.iter (Histogram.add histogram) loads;
  Format.printf "  per-peer load histogram:@.%s" (Histogram.render ~width:40 histogram)

let () =
  Format.printf "music-sharing directory: %d songs, %d peers, %d downloads of %d sources each@."
    (Array.length songs) peer_count downloads sources_per_download;

  (* Fixed-x always answers with the same x peers per song: the unlucky
     first few hosts soak up all the traffic.  RoundRobin-y spreads
     copies (and therefore answers) across the fleet. *)
  describe "Fixed-4 per song" (build (Service.fixed 4));
  describe "RoundRobin-2 per song" (build (Service.round_robin 2));

  Format.printf
    "@.takeaway: at comparable storage, round-robin placement serves every host and@.\
     keeps the busiest peer far below the Fixed-x hot spots — the paper's fairness@.\
     argument (Section 4.5) in action.@."
