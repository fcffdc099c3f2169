(* plookup — reproduce the tables and figures of "Partial Lookup
   Services" (Sun & Garcia-Molina) and poke at the strategies
   interactively. *)

open Cmdliner
module Experiments = Plookup_experiments
module Table = Plookup_util.Table

(* [Arg.float] without NaN and the infinities.  Every float flag is a
   scale, probability, duration or rate: a NaN clock never passes a
   churn horizon, and elsewhere a non-finite value silently reads as 0
   or shrinks the run. *)
let finite =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not a finite number" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"FLOAT" (parse, Arg.conv_printer Arg.float)

let seed_arg =
  let doc = "Master random seed; every run is deterministic given the seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc =
    "Monte-Carlo scale multiplier.  1.0 reproduces each series in seconds; the paper's \
     own sample sizes correspond to roughly 50-100x (see EXPERIMENTS.md)."
  in
  Arg.(value & opt finite 1.0 & info [ "scale" ] ~docv:"SCALE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo replicates.  Results are byte-identical at any \
     value; 0 means one worker per available core."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let resolve_jobs jobs =
  if jobs = 0 then Plookup_util.Pool.recommended_jobs () else jobs

let loss_arg =
  let doc =
    "Ambient per-transmission message-loss probability for fault-aware experiments \
     (e.g. $(b,loss)); a non-zero value is also added to the loss sweep's rate list."
  in
  Arg.(value & opt finite 0.0 & info [ "loss" ] ~docv:"P" ~doc)

let duplication_arg =
  let doc = "Ambient per-transmission duplication probability for fault-aware experiments." in
  Arg.(value & opt finite 0.0 & info [ "duplication" ] ~docv:"P" ~doc)

let jitter_arg =
  let doc =
    "Ambient per-delivery delay jitter (max extra delay, in simulated ms) for \
     fault-aware experiments."
  in
  Arg.(value & opt finite 0.0 & info [ "jitter" ] ~docv:"MS" ~doc)

let mttf_arg =
  let doc =
    "Mean time to failure per server, for the churned experiments: $(b,churn) \
     (default 50) and $(b,day) (default 250)."
  in
  Arg.(value & opt (some finite) None & info [ "mttf" ] ~docv:"TIME" ~doc)

let mttr_arg =
  let doc =
    "Mean time to recovery per server, for the churned experiments: $(b,churn) \
     (default 50) and $(b,day) (default 20)."
  in
  Arg.(value & opt (some finite) None & info [ "mttr" ] ~docv:"TIME" ~doc)

let horizon_arg =
  let doc =
    "Simulated duration of the churned experiments before $(b,--scale) is applied: \
     $(b,churn) (default 5000) and $(b,day) (default 600)."
  in
  Arg.(value & opt (some finite) None & info [ "horizon" ] ~docv:"TIME" ~doc)

let repair_arg =
  let doc =
    "Self-healing mode of the churned experiments: $(b,off), $(b,sync) (digest \
     recovery sync only) or $(b,full) (sync + repair daemon; the default).  \
     $(b,churn) compares it against repair off, with no repaired pass when it is \
     $(b,off); $(b,day) runs every cell with it."
  in
  Arg.(value & opt (some string) None & info [ "repair" ] ~docv:"MODE" ~doc)

let grace_arg =
  let doc =
    "Repair daemon grace period, in $(b,churn) and $(b,day): how long a server may be \
     down before its entries are re-replicated elsewhere (default 30)."
  in
  Arg.(value & opt (some finite) None & info [ "grace" ] ~docv:"TIME" ~doc)

let repair_period_arg =
  let doc =
    "Interval between repair daemon passes, in $(b,churn) and $(b,day) (default 10)."
  in
  Arg.(value & opt (some finite) None & info [ "repair-period" ] ~docv:"TIME" ~doc)

let capacity_arg =
  let doc =
    "Overload model: per-server inbox queue limit for the production-day experiment \
     (default 8)."
  in
  Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N" ~doc)

let service_rate_arg =
  let doc =
    "Overload model: messages each server can serve per simulated time unit (default 2)."
  in
  Arg.(value & opt (some finite) None & info [ "service-rate" ] ~docv:"RATE" ~doc)

let deadline_arg =
  let doc =
    "Tail-tolerant client: per-lookup deadline budget in simulated ms (default 250)."
  in
  Arg.(value & opt (some finite) None & info [ "deadline" ] ~docv:"MS" ~doc)

let hedge_arg =
  let doc =
    "Tail-tolerant client: latency quantile (exclusive, in (0, 100)) of the observed \
     lookup latency at which a hedged backup request is launched (default 95)."
  in
  Arg.(value & opt (some finite) None & info [ "hedge" ] ~docv:"Q" ~doc)

let breaker_arg =
  let doc =
    "Tail-tolerant client: consecutive failures before a server's circuit breaker \
     opens (default 3)."
  in
  Arg.(value & opt (some int) None & info [ "breaker" ] ~docv:"N" ~doc)

let degrade_arg =
  let doc =
    "Gray-failure injection: service-time multiplier applied to two servers during the \
     flash crowd (default 25)."
  in
  Arg.(value & opt (some finite) None & info [ "degrade" ] ~docv:"FACTOR" ~doc)

let cache_flag =
  let doc =
    "Client cache: add the tuned+cache cell to the production-day experiment — the \
     tail-tolerant client in front of a TTL'd LRU with singleflight coalescing — and \
     report messages per lookup and cache hit rate.  Implied by any other $(b,--cache-*) \
     / $(b,--swr) / $(b,--hotspot) flag."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let cache_cap_arg =
  let doc = "Client cache: LRU capacity in entries (default 128)." in
  Arg.(value & opt (some int) None & info [ "cache-cap" ] ~docv:"N" ~doc)

let cache_ttl_arg =
  let doc =
    "Client cache: entry freshness window in simulated ms (default 10, the day \
     experiment's update period)."
  in
  Arg.(value & opt (some finite) None & info [ "cache-ttl" ] ~docv:"MS" ~doc)

let swr_arg =
  let doc =
    "Client cache: stale-while-revalidate window past the TTL — an expired entry this \
     recent is served immediately while one probe refreshes it in the background \
     (default 0, disabled)."
  in
  Arg.(value & opt (some finite) None & info [ "swr" ] ~docv:"MS" ~doc)

let hotspot_arg =
  let doc =
    "Hotspot-adversarial workload: aim this fraction of every cell's lookups at the \
     strategy's worst-placed key instead of the Zipf draw (default 0, in [0, 1])."
  in
  Arg.(value & opt (some finite) None & info [ "hotspot" ] ~docv:"F" ~doc)

(* The day experiment's client-cache configuration: [None] (no cached
   cell) unless some cache flag was given. *)
let cache_config ~cache ~cache_cap ~cache_ttl ~swr ~hotspot =
  match (cache, cache_cap, cache_ttl, swr, hotspot) with
  | false, None, None, None, None -> None
  | _ ->
    let d = Experiments.Ctx.default_cache in
    Some
      { Experiments.Ctx.cache_cap =
          Option.value cache_cap ~default:d.Experiments.Ctx.cache_cap;
        cache_ttl = Option.value cache_ttl ~default:d.Experiments.Ctx.cache_ttl;
        swr = Option.value swr ~default:d.Experiments.Ctx.swr;
        hotspot = Option.value hotspot ~default:d.Experiments.Ctx.hotspot }

(* The day experiment's overload configuration: Ctx.default_overload
   with each given flag in place of its field. *)
let overload_config ~capacity ~service_rate ~deadline ~hedge ~breaker ~degrade =
  let d = Experiments.Ctx.default_overload in
  { Experiments.Ctx.capacity = Option.value capacity ~default:d.Experiments.Ctx.capacity;
    service_rate = Option.value service_rate ~default:d.Experiments.Ctx.service_rate;
    deadline = Option.value deadline ~default:d.Experiments.Ctx.deadline;
    hedge = Option.value hedge ~default:d.Experiments.Ctx.hedge;
    breaker = Option.value breaker ~default:d.Experiments.Ctx.breaker;
    degrade = Option.value degrade ~default:d.Experiments.Ctx.degrade }

let csv_arg =
  let doc = "Emit CSV instead of an aligned ASCII table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let plot_arg =
  let doc =
    "Also draw the numeric columns as an ASCII line plot (x = first column), so curve \
     shapes — staircases, decays, crossovers — are visible in the terminal."
  in
  Arg.(value & flag & info [ "plot" ] ~doc)

let render ~csv ~plot table =
  if csv then print_string (Table.to_csv table) else Table.print table;
  if plot then begin
    match Table.columns table with
    | x :: rest ->
      (* Plot every numeric column; skip label-like ones silently. *)
      let numeric_columns =
        List.filter
          (fun name ->
            match Plookup_util.Ascii_plot.of_table ~x ~columns:[ name ] table with
            | Ok _ -> true
            | Error _ -> false)
          rest
      in
      (match Plookup_util.Ascii_plot.of_table ~x ~columns:numeric_columns table with
      | Ok chart -> print_string chart
      | Error msg -> Printf.printf "(not plottable: %s)\n" msg)
    | [] -> ()
  end

(* The churned experiments' repair configuration: Repair.default_config
   with each given flag in place of its field. *)
let repair_config ~repair ~grace ~period =
  let d = Plookup.Repair.default_config in
  let mode =
    match repair with None -> Ok d.Plookup.Repair.mode | Some s -> Plookup.Repair.mode_of_string s
  in
  match mode with
  | Error msg -> Error msg
  | Ok mode ->
    Ok
      { Plookup.Repair.mode;
        grace = Option.value grace ~default:d.Plookup.Repair.grace;
        period = Option.value period ~default:d.Plookup.Repair.period }

(* Every flag that configures an experiment context, as one term, so
   [run] and [trace] accept the same ones.  It yields a function from
   the observability handle ([trace] passes its own) to the context, or
   to the message that rejects the flags. *)
let ctx_term =
  let build seed scale jobs loss duplication jitter mttf mttr horizon repair grace period
      capacity service_rate deadline hedge breaker degrade cache cache_cap cache_ttl swr
      hotspot obs =
    match repair_config ~repair ~grace ~period with
    | Error msg -> Error msg
    | Ok repair -> (
      let overload =
        overload_config ~capacity ~service_rate ~deadline ~hedge ~breaker ~degrade
      in
      let cache = cache_config ~cache ~cache_cap ~cache_ttl ~swr ~hotspot in
      match
        Experiments.Ctx.v ~seed ~scale ~jobs:(resolve_jobs jobs) ~loss ~duplication ~jitter
          ?mttf ?mttr ?horizon ~repair ~overload ?cache ?obs ()
      with
      | ctx -> Ok ctx
      | exception Invalid_argument msg -> Error msg)
  in
  Term.(
    const build $ seed_arg $ scale_arg $ jobs_arg $ loss_arg $ duplication_arg $ jitter_arg
    $ mttf_arg $ mttr_arg $ horizon_arg $ repair_arg $ grace_arg $ repair_period_arg
    $ capacity_arg $ service_rate_arg $ deadline_arg $ hedge_arg $ breaker_arg $ degrade_arg
    $ cache_flag $ cache_cap_arg $ cache_ttl_arg $ swr_arg $ hotspot_arg)

let find_experiment id =
  match Experiments.Registry.find id with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown experiment %S; try one of: %s" id
         (String.concat ", " (Experiments.Registry.ids ())))

(* run subcommand *)
let run_experiment ids ctx csv plot =
  match ctx None with
  | Error msg -> `Error (false, msg)
  | Ok ctx ->
    let rec go = function
      | [] -> `Ok ()
      | id :: rest -> (
        match find_experiment id with
        | Error msg -> `Error (false, msg)
        | Ok e ->
          let t0 = Unix.gettimeofday () in
          let table = e.Experiments.Registry.run ctx in
          render ~csv ~plot table;
          Printf.printf "(%s finished in %.1fs)\n\n%!" e.Experiments.Registry.id
            (Unix.gettimeofday () -. t0);
          go rest)
    in
    go (if ids = [] then Experiments.Registry.ids () else ids)

let run_cmd =
  let ids =
    let doc = "Experiments to run (default: all).  See $(b,plookup list)." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let doc = "Regenerate one or more of the paper's tables/figures." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run_experiment $ ids $ ctx_term $ csv_arg $ plot_arg))

(* list subcommand *)
let list_experiments () =
  let width =
    List.fold_left (fun w id -> max w (String.length id)) 0 (Experiments.Registry.ids ())
  in
  List.iter
    (fun e ->
      Printf.printf "%-*s %s\n" width e.Experiments.Registry.id e.Experiments.Registry.title)
    Experiments.Registry.all;
  `Ok ()

let list_cmd =
  let doc = "List the reproducible tables and figures." in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const list_experiments $ const ()))

(* stars subcommand: Table 2's star ranks derived from the scorecard
   that [run table2] measures (seed 42, scale 1.0), then the paper's *)
let stars () =
  let _, derived = Experiments.Exp_table2.run_full (Experiments.Ctx.v ()) in
  Table.print derived;
  print_newline ();
  Table.print Experiments.Exp_table2.paper_stars;
  `Ok ()

let stars_cmd =
  let doc =
    "Print Table 2's star ranks derived from the measured scorecard (seed 42, scale 1.0), \
     then the paper's own star ratings for comparison."
  in
  Cmd.v (Cmd.info "stars" ~doc) Term.(ret (const stars $ const ()))

(* strategies subcommand: the registry, printed *)
let strategy_forms () =
  List.map
    (fun (module S : Plookup.Strategy_intf.S) ->
      Plookup.Strategy_registry.spelling S.meta)
    (Plookup.Strategy_registry.all ())

let strategy_arg_doc () =
  Printf.sprintf "Strategy: %s.  See $(b,plookup strategies)."
    (String.concat ", " (strategy_forms ()))

let list_strategies csv =
  let table =
    Table.create ~title:"registered placement strategies"
      ~columns:[ "strategy"; "spelling"; "parameter"; "storage"; "notes" ]
  in
  List.iter
    (fun (module S : Plookup.Strategy_intf.S) ->
      let m = S.meta in
      Table.add_row table
        [ Table.S m.Plookup.Strategy_intf.name;
          Table.S (Plookup.Strategy_registry.spelling m);
          Table.S
            (if m.Plookup.Strategy_intf.param_doc = "" then "-"
             else m.Plookup.Strategy_intf.param_doc);
          Table.S m.Plookup.Strategy_intf.storage_doc;
          Table.S (if m.Plookup.Strategy_intf.ablation then "ablation" else "") ])
    (Plookup.Strategy_registry.all ());
  if csv then print_string (Table.to_csv table) else Table.print table;
  `Ok ()

let strategies_cmd =
  let doc =
    "List the registered placement strategies: accepted spelling, parameter meaning \
     and Table-1 storage formula, straight from the strategy registry."
  in
  Cmd.v (Cmd.info "strategies" ~doc) Term.(ret (const list_strategies $ csv_arg))

(* The first size flag below 1, as a usage error. *)
let below_one flags =
  List.find_map
    (fun (flag, v) ->
      if v < 1 then Some (Printf.sprintf "--%s must be at least 1 (got %d)" flag v) else None)
    flags

(* demo subcommand: place some entries under a strategy and look up *)
let demo strategy n entries target seed =
  match
    ( below_one [ ("servers", n); ("entries", entries); ("t", target) ],
      Plookup.Service.config_of_string strategy )
  with
  | Some msg, _ | None, Error msg -> `Error (false, msg)
  | None, Ok config ->
    let open Plookup_store in
    let service = Plookup.Service.create ~seed ~n config in
    let gen = Entry.Gen.create () in
    let batch = Entry.Gen.batch gen entries in
    Plookup.Service.place service batch;
    let cluster = Plookup.Service.cluster service in
    Format.printf "%a" Plookup.Cluster.pp cluster;
    let result = Plookup.Service.partial_lookup service target in
    Format.printf "%a@." Plookup.Lookup_result.pp result;
    Format.printf "returned: %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Entry.pp)
      (List.sort Entry.compare result.Plookup.Lookup_result.entries);
    Printf.printf "storage cost: %d entries, coverage: %d\n"
      (Plookup_metrics.Storage.measured cluster)
      (Plookup_metrics.Coverage.measured cluster);
    `Ok ()

let demo_cmd =
  let strategy =
    let doc = strategy_arg_doc () in
    Arg.(value & pos 0 string "round-2" & info [] ~docv:"STRATEGY" ~doc)
  in
  let n =
    let doc = "Number of servers." in
    Arg.(value & opt int 4 & info [ "n"; "servers" ] ~docv:"N" ~doc)
  in
  let entries =
    let doc = "Number of entries to place." in
    Arg.(value & opt int 12 & info [ "entries" ] ~docv:"H" ~doc)
  in
  let target =
    let doc = "Target answer size for the demo lookup." in
    Arg.(value & opt int 5 & info [ "t"; "target" ] ~docv:"T" ~doc)
  in
  let doc = "Place entries under a strategy, show the placement, do one lookup." in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(ret (const demo $ strategy $ n $ entries $ target $ seed_arg))

(* sweep subcommand: custom parameter study over target answer sizes *)
let sweep strategy n h budget t_lo t_hi t_step runs seed csv =
  let sizes = [ ("servers", n); ("entries", h); ("runs", runs) ] in
  let sizes = match budget with Some b -> sizes @ [ ("budget", b) ] | None -> sizes in
  match below_one sizes with
  | Some msg -> `Error (false, msg)
  | None ->
  if t_lo <= 0 || t_hi < t_lo || t_step <= 0 then
    `Error (false, "need 0 < t-lo <= t-hi and a positive step")
  else begin
    match Plookup.Service.config_of_string strategy with
    | Error msg -> `Error (false, msg)
    | Ok base ->
      let config =
        match budget with
        | None -> base
        | Some total -> Plookup.Service.storage_for_budget base ~n ~h ~total
      in
      let module Metrics = Plookup_metrics in
      let table =
        Plookup_util.Table.create
          ~title:
            (Printf.sprintf "sweep: %s, %d entries on %d servers, %d runs per point"
               (Plookup.Service.config_name config)
               h n runs)
          ~columns:
            [ "t"; "lookup cost"; "ci95"; "fail %"; "coverage"; "fault tolerance" ]
      in
      let coverage, _ =
        Metrics.Coverage.measured_over_instances ~seed ~n ~entries:h ~config ~runs ()
      in
      let t = ref t_lo in
      while !t <= t_hi do
        let m =
          Metrics.Lookup_cost.measure_over_instances ~seed ~n ~entries:h ~config ~t:!t
            ~runs ~lookups_per_run:200 ()
        in
        let tolerance, _ =
          Metrics.Fault_tolerance.measure_over_instances ~seed ~n ~entries:h ~config ~t:!t
            ~runs ()
        in
        Plookup_util.Table.add_row table
          [ Plookup_util.Table.I !t;
            Plookup_util.Table.F m.Metrics.Lookup_cost.mean_cost;
            Plookup_util.Table.F4 m.Metrics.Lookup_cost.ci95;
            Plookup_util.Table.F (100. *. m.Metrics.Lookup_cost.failure_rate);
            Plookup_util.Table.F coverage;
            Plookup_util.Table.F tolerance ];
        t := !t + t_step
      done;
      render ~csv ~plot:false table;
      `Ok ()
  end

let sweep_cmd =
  let strategy =
    let doc = strategy_arg_doc () in
    Arg.(value & pos 0 string "round-2" & info [] ~docv:"STRATEGY" ~doc)
  in
  let n =
    Arg.(value & opt int 10 & info [ "servers" ] ~docv:"N" ~doc:"Number of servers.")
  in
  let h =
    Arg.(value & opt int 100 & info [ "entries" ] ~docv:"H" ~doc:"Number of entries.")
  in
  let budget =
    let doc =
      "Re-parameterize the strategy for this total storage budget (Table 1 formulas)."
    in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"B" ~doc)
  in
  let t_lo = Arg.(value & opt int 10 & info [ "t-lo" ] ~docv:"T" ~doc:"Smallest target.") in
  let t_hi = Arg.(value & opt int 50 & info [ "t-hi" ] ~docv:"T" ~doc:"Largest target.") in
  let t_step = Arg.(value & opt int 5 & info [ "t-step" ] ~docv:"S" ~doc:"Target step.") in
  let runs =
    Arg.(value & opt int 30 & info [ "runs" ] ~docv:"R" ~doc:"Placements per data point.")
  in
  let doc = "Sweep target answer sizes for one strategy and print its metric profile." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const sweep $ strategy $ n $ h $ budget $ t_lo $ t_hi $ t_step $ runs $ seed_arg
        $ csv_arg))

(* trace subcommand: one experiment with the observability layer on *)
let trace_experiment id trace_out metrics_dump trace_cap ctx csv =
  let module Obs = Plookup_obs.Obs in
  let module Trace = Plookup_obs.Trace in
  match find_experiment id with
  | Error msg -> `Error (false, msg)
  | Ok e ->
    if trace_cap <= 0 then `Error (false, "--trace-cap must be positive")
    else begin
      let obs = Obs.create ~trace_capacity:trace_cap () in
      Trace.set_enabled obs.Obs.trace true;
      match ctx (Some obs) with
      | Error msg -> `Error (false, msg)
      | Ok ctx ->
        (* Opened only once every flag is accepted, so a rejected run
           leaves no trace file behind. *)
        let sink_channel =
          Option.map
            (fun path ->
              let oc = open_out path in
              Trace.add_sink obs.Obs.trace (Plookup_obs.Sink.jsonl oc);
              oc)
            trace_out
        in
        let table = e.Experiments.Registry.run ctx in
        render ~csv ~plot:false table;
        Trace.flush obs.Obs.trace;
        Option.iter close_out sink_channel;
        let tr = obs.Obs.trace in
        Printf.printf "trace: %d spans emitted, %d retained, %d dropped%s\n"
          (Trace.emitted tr) (Trace.length tr) (Trace.dropped tr)
          (match trace_out with
          | Some f -> Printf.sprintf ", streamed to %s" f
          | None -> "");
        if metrics_dump then
          print_endline
            (Plookup_obs.Metrics.to_json
               (Plookup_obs.Metrics.snapshot obs.Obs.metrics));
        `Ok ()
    end

let trace_cmd =
  let id =
    let doc = "Experiment to trace.  See $(b,plookup list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let trace_out =
    let doc =
      "Stream every span to $(docv) as JSON Lines (one object per span) while the \
       experiment runs.  The stream sees each span once, including spans later evicted \
       from the in-memory ring.  Every send, recv and drop line names its plane, so one \
       plane's spans can be filtered out afterwards."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_dump =
    let doc =
      "After the run, print the aggregated metrics registry snapshot as one JSON object \
       (counters, gauges and histograms, with their labels)."
    in
    Arg.(value & flag & info [ "metrics-dump" ] ~doc)
  in
  let trace_cap =
    let doc =
      "Capacity of each in-memory span ring (per worker); older spans are evicted first \
       and reported in the final $(b,dropped) count."
    in
    Arg.(value & opt int 1_048_576 & info [ "trace-cap" ] ~docv:"N" ~doc)
  in
  let doc =
    "Run one experiment with tracing enabled: typed spans (sends, receives, drops, \
     retries, timeouts, repair rounds, migrations) to a JSONL file, plus an optional \
     metrics-registry dump."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const trace_experiment $ id $ trace_out $ metrics_dump $ trace_cap $ ctx_term
        $ csv_arg))

let main_cmd =
  let doc = "partial lookup service — reproduction of Sun & Garcia-Molina (ICDCS 2003)" in
  let info = Cmd.info "plookup" ~version:"1.37.0" ~doc in
  Cmd.group info
    [ run_cmd; list_cmd; stars_cmd; strategies_cmd; demo_cmd; sweep_cmd; trace_cmd ]

let () = exit (Cmd.eval main_cmd)
