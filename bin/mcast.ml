(* mcast: command-line front end for the pipelined-multicast library.

   Subcommands:
     generate            emit a platform (Tiers or random) in the text format
     bounds              Multicast-LB / Multicast-UB / Broadcast-EB + topology stats
     heuristics          run the paper's method portfolio
     tree                one-port MCPH tree (+ optional DOT dump)
     simulate            schedule the MCPH tree and replay it
     broadcast-schedule  Broadcast-EB -> arborescence packing -> replay
     scatter-schedule    Multicast-UB -> weighted chains -> replay
     resilience          failure injection, schedule repair, retention report
                         (--online drives the recovery-loop controller)
     robust              proactive robust planning: worst-case retention report
     soak                chaos soak: continuous recovery over a fail/repair timeline
     sessions            online session engine: rolling-horizon admission and
                         incremental re-planning over a churning session stream
     incidents           soak under SLO objectives, report fault -> breach ->
                         repair -> recovery incident timelines
     profile             run a workload under tracing, print a self-time profile
     prefix              Theorem 5 parallel-prefix gadget walk-through
     gadget              set-cover gadget and the Theorem 1 correspondence *)

open Cmdliner

let read_platform = function
  | None -> (
    match Platform_io.of_string (In_channel.input_all In_channel.stdin) with
    | Ok p -> p
    | Error e -> failwith ("stdin: " ^ e))
  | Some path -> (
    match Platform_io.load path with
    | Ok p -> p
    | Error e -> failwith (path ^ ": " ^ e))

let platform_arg =
  let doc = "Platform description file (defaults to stdin)." in
  Arg.(value & opt (some string) None & info [ "p"; "platform" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the scenario engine (defaults to \\$(b,MCAST_JOBS) or 1). \
     Results are bit-identical for every job count."
  in
  Arg.(value & opt int (Pool.default_jobs ()) & info [ "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Record a Chrome-trace of the run into $(docv) (JSON; open in \
     chrome://tracing or https://ui.perfetto.dev). Spans carry the worker \
     domain id, so a --jobs N run shows pool utilization directly."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print the metrics-registry deltas accumulated during the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Bracket a subcommand body with the observability layer: start tracing if
   --trace was given, snapshot the metric registry if --metrics was, and on
   the way out (even on failure) export the trace and print the deltas.
   [counters] is evaluated at export time so drivers that sample a
   Timeseries sink during the run get their series appended to the trace
   as Perfetto counter tracks. *)
let with_observability ?(counters = fun () -> []) ~trace ~metrics f =
  if trace <> None then Trace.enable ();
  let before = if metrics then Some (Metrics.snapshot ()) else None in
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | None -> ()
      | Some path ->
        let n = List.length (Trace.events ()) and d = Trace.dropped () in
        Trace.export ~counters:(counters ()) path;
        Trace.disable ();
        Printf.printf "trace: wrote %d events to %s (%d dropped%s)\n" n path d
          (if d > 0 then ": ring full, trace is partial" else ""));
      match before with
      | None -> ()
      | Some before ->
        print_string "metrics:\n";
        print_string (Metrics.to_text (Metrics.delta ~before (Metrics.snapshot ()))))
    f

(* --- time-series / SLO plumbing shared by soak, sessions and incidents --- *)

let slo_arg =
  let doc =
    "SLO objective over a sampled series: $(b,SERIES>=T) or $(b,SERIES<=T), \
     optionally followed by comma-separated tuning keys, e.g. \
     $(b,soak.availability>=0.99,fast=20,slow=100,hold=25) (keys: budget, fast, \
     slow, fastburn, slowburn, hold, name). Repeatable. Breaches are evaluated \
     with the standard fast/slow error-budget burn-rate pair."
  in
  Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"SPEC" ~doc)

let timeseries_arg =
  let doc =
    "Export the sampled time series to $(docv): a $(b,.json) suffix selects the \
     JSON rollup document, anything else OpenMetrics text. Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "timeseries" ] ~docv:"FILE" ~doc)

let parse_slo_specs specs =
  List.map
    (fun s ->
      match Slo.parse s with
      | Ok o -> o
      | Error e -> failwith (Printf.sprintf "--slo %s: %s" s e))
    specs

(* The sink exists whenever something will consume it: an export file, SLO
   objectives to evaluate, or a trace to append counter tracks to. *)
let make_sink ~timeseries ~slo ~trace =
  if timeseries = [] && slo = [] && trace = None then None
  else Some (Timeseries.create ())

let sink_counters sink () =
  match sink with Some s -> Timeseries.counter_tracks s | None -> []

let export_timeseries sink paths =
  match sink with
  | None -> ()
  | Some s ->
    List.iter
      (fun path ->
        let text =
          if Filename.check_suffix path ".json" then Timeseries.to_json s
          else Timeseries.to_openmetrics s
        in
        Out_channel.with_open_text path (fun oc -> output_string oc text);
        Printf.printf "timeseries: wrote %d series to %s\n"
          (List.length (Timeseries.names s))
          path)
      paths

let print_slo_events objectives events =
  if objectives <> [] then begin
    let breaches =
      List.length (List.filter (fun (e : Slo.event) -> e.Slo.e_kind = `Breach) events)
    in
    Printf.printf "slo: %d objective(s), %d breach(es), %d recover(ies)\n"
      (List.length objectives) breaches
      (List.length events - breaches);
    List.iter
      (fun (e : Slo.event) ->
        Printf.printf "  t=%-10g %-8s %s (fast burn %.2fx, slow %.2fx)\n" e.Slo.e_at
          (match e.Slo.e_kind with `Breach -> "breach" | `Recovery -> "recovery")
          e.Slo.e_objective e.Slo.e_fast_burn e.Slo.e_slow_burn)
      events
  end

(* One-line solver/cache telemetry, printed after the heavy subcommands. *)
let print_perf_counters () =
  let c = Lp_counters.snapshot () in
  let s = Lp_cache.stats () in
  Printf.printf
    "perf: %d LP solves (%d exact), %d pivots; LP cache %d hits / %d misses\n"
    (c.Lp_counters.float_solves + c.Lp_counters.exact_solves)
    c.Lp_counters.exact_solves
    (c.Lp_counters.pivots + c.Lp_counters.exact_pivots)
    s.Lp_cache.hits s.Lp_cache.misses

(* The stochastic subcommands (resilience / robust / soak) share one --seed
   convention; any nonzero exit names the effective seed so the failing run
   can be reproduced verbatim from the CI log. *)
let exit_with_seed ~seed code =
  if code <> 0 then
    Printf.eprintf "effective seed: %d (rerun with --seed %d to reproduce)\n%!" seed seed;
  exit code

let with_seed_reporting ~seed f =
  try f ()
  with Failure e ->
    Printf.eprintf "mcast: %s\n%!" e;
    exit_with_seed ~seed 1

(* --- generate --- *)

let platform_of_kind rng kind ~n_targets =
  match kind with
  | "tiers-small" -> Tiers.generate rng Tiers.small_params ~n_targets
  | "tiers-big" -> Tiers.generate rng Tiers.big_params ~n_targets
  | "random" ->
    Generators.random_connected rng ~nodes:20 ~extra_edges:10 ~min_cost:1 ~max_cost:50
      ~n_targets
  | "fig1" -> Paper_platforms.fig1 ()
  | "fig4" -> Paper_platforms.fig4 ()
  | "two-relay" -> Paper_platforms.two_relay ()
  | other -> failwith ("unknown platform kind: " ^ other)

let generate kind seed n_targets out trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let p = platform_of_kind rng kind ~n_targets in
  let text = Platform_io.to_string p in
  match out with
  | None -> print_string text
  | Some path ->
    Platform_io.save path p;
    Printf.printf "wrote %s (%s)\n" path (Platform.describe p)

let generate_cmd =
  let kind =
    let doc = "Platform kind: tiers-small, tiers-big, random, fig1, fig4, two-relay." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets." in
    Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Output file (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a platform instance")
    Term.(const generate $ kind $ seed_arg $ n_targets $ out $ trace_arg $ metrics_arg)

(* --- bounds --- *)

let bounds file trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let p = read_platform file in
  Printf.printf "%s\n" (Platform.describe p);
  Format.printf "topology: %a@." Topology_stats.pp (Topology_stats.compute p);
  let b = Bounds.compute p in
  let show name = function
    | None -> Printf.printf "%-14s infeasible\n" name
    | Some (s : Formulations.solution) ->
      Printf.printf "%-14s period %10.4f  throughput %.6f\n" name s.Formulations.period
        s.Formulations.throughput
  in
  show "Multicast-LB" b.Bounds.lb;
  show "Multicast-UB" b.Bounds.ub;
  show "Broadcast-EB" b.Bounds.broadcast;
  match Bounds.check b ~n_targets:(List.length p.Platform.targets) with
  | Ok () -> Printf.printf "bound chain: OK\n"
  | Error e -> Printf.printf "bound chain: VIOLATED (%s)\n" e

let bounds_cmd =
  Cmd.v (Cmd.info "bounds" ~doc:"LP bounds of an instance")
    Term.(const bounds $ platform_arg $ trace_arg $ metrics_arg)

(* --- heuristics --- *)

let heuristics file tries sources trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let p = read_platform file in
  Printf.printf "%s\n" (Platform.describe p);
  let report = Heuristics.run_all ?max_tries_per_round:tries ~max_sources:sources p in
  Printf.printf "%-16s %12s %12s %9s\n" "method" "period" "throughput" "time(s)";
  List.iter
    (fun (e : Heuristics.entry) ->
      Printf.printf "%-16s %12.4f %12.6f %9.2f\n" e.Heuristics.name e.Heuristics.period
        e.Heuristics.throughput e.Heuristics.wall_time)
    report.Heuristics.entries

let heuristics_cmd =
  let tries =
    let doc = "Cap LP probes per improvement round (default: exhaustive)." in
    Arg.(value & opt (some int) None & info [ "tries" ] ~docv:"K" ~doc)
  in
  let sources =
    let doc = "Maximum secondary-source count for Multisource MC." in
    Arg.(value & opt int 4 & info [ "max-sources" ] ~docv:"K" ~doc)
  in
  Cmd.v
    (Cmd.info "heuristics" ~doc:"Run the paper's heuristic portfolio")
    Term.(const heuristics $ platform_arg $ tries $ sources $ trace_arg $ metrics_arg)

(* --- tree --- *)

let tree file dot_out trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let p = read_platform file in
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r ->
    Printf.printf "MCPH tree: period %s, throughput %s\n"
      (Rat.to_string r.Mcph.period)
      (Rat.to_string (Rat.inv r.Mcph.period));
    List.iter
      (fun (u, v) ->
        Printf.printf "  %s -> %s\n" (Digraph.label p.Platform.graph u)
          (Digraph.label p.Platform.graph v))
      (Multicast_tree.edges r.Mcph.tree);
    match dot_out with
    | None -> ()
    | Some path ->
      let dot =
        Dot.digraph ~highlight_nodes:p.Platform.targets
          ~highlight_edges:(Multicast_tree.edges r.Mcph.tree) p.Platform.graph
      in
      Dot.save path dot;
      Printf.printf "wrote %s\n" path

let tree_cmd =
  let dot =
    let doc = "Write a Graphviz DOT file with the tree highlighted." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "tree" ~doc:"One-port MCPH multicast tree")
    Term.(const tree $ platform_arg $ dot $ trace_arg $ metrics_arg)

(* --- simulate --- *)

let simulate file periods trace metrics =
  if periods < 1 then begin
    prerr_endline "mcast: --periods must be at least 1";
    exit 1
  end;
  with_observability ~trace ~metrics @@ fun () ->
  let p = read_platform file in
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r ->
    let set = Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ] in
    let sched = Schedule.of_tree_set set in
    (match Schedule.check sched with
    | Ok () -> ()
    | Error e -> failwith ("schedule check failed: " ^ e));
    Printf.printf "schedule: period %s, %d messages/period, %d transfers\n"
      (Rat.to_string sched.Schedule.period)
      sched.Schedule.messages_per_period
      (List.length sched.Schedule.transfers);
    (* Fewer periods than the pipeline needs to warm up leave the rate
       window empty: clamp as broadcast-schedule and scatter-schedule do. *)
    (match Event_sim.run sched ~periods:(max periods (Schedule.init_periods sched + 3)) with
    | Error e -> failwith ("simulation failed: " ^ e)
    | Ok stats ->
      Printf.printf "simulated %d periods: throughput %.6f (predicted %.6f), max latency %.1f\n"
        stats.Event_sim.periods stats.Event_sim.measured_throughput
        (Rat.to_float (Rat.inv r.Mcph.period))
        stats.Event_sim.max_latency)

let simulate_cmd =
  let periods =
    let doc =
      "Number of periods to replay (at least 1; raised to the pipeline depth + 3 so the \
       steady-state window is not empty)."
    in
    Arg.(value & opt int 12 & info [ "periods" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Schedule the MCPH tree and replay it")
    Term.(const simulate $ platform_arg $ periods $ trace_arg $ metrics_arg)

(* --- broadcast-schedule --- *)

let broadcast_schedule file periods trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let p = read_platform file in
  match Formulations.broadcast_eb p with
  | None -> failwith "broadcast infeasible (disconnected platform)"
  | Some sol -> (
    Printf.printf "Broadcast-EB: period %.4f (throughput %.6f)\n" sol.Formulations.period
      sol.Formulations.throughput;
    match Arborescence_packing.schedule_of_broadcast p sol with
    | Error e -> failwith e
    | Ok (sched, thr) ->
      Printf.printf "packed into %d arborescences, schedulable throughput %s\n"
        (Array.length sched.Schedule.trees)
        (Rat.to_string thr);
      (match Schedule.check sched with
      | Ok () -> ()
      | Error e -> failwith ("schedule check failed: " ^ e));
      (match Event_sim.run sched ~periods:(max periods (Schedule.init_periods sched + 3)) with
      | Error e -> failwith ("simulation failed: " ^ e)
      | Ok stats ->
        Printf.printf "simulated: measured throughput %.6f\n"
          stats.Event_sim.measured_throughput))

let broadcast_schedule_cmd =
  let periods =
    Arg.(value & opt int 10 & info [ "periods" ] ~docv:"N" ~doc:"Simulation periods.")
  in
  Cmd.v
    (Cmd.info "broadcast-schedule"
       ~doc:"Pack Broadcast-EB into arborescences, schedule and simulate")
    Term.(const broadcast_schedule $ platform_arg $ periods $ trace_arg $ metrics_arg)

(* --- scatter-schedule --- *)

let scatter_schedule file periods trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let p = read_platform file in
  match Formulations.multicast_ub p with
  | None -> failwith "some target is unreachable"
  | Some sol -> (
    Printf.printf "Multicast-UB (scatter): period %.4f per multicast\n"
      sol.Formulations.period;
    match Scatter_schedule.of_solution p sol with
    | Error e -> failwith e
    | Ok sched ->
      Printf.printf "schedule: %d chains, message rate %s per time unit\n"
        (Array.length sched.Schedule.trees)
        (Rat.to_string (Scatter_schedule.message_rate sched));
      (match Schedule.check sched with
      | Ok () -> ()
      | Error e -> failwith ("schedule check failed: " ^ e));
      (match Event_sim.run sched ~periods:(max periods (Schedule.init_periods sched + 3)) with
      | Error e -> failwith ("simulation failed: " ^ e)
      | Ok stats ->
        Printf.printf "simulated: measured message rate %.6f\n"
          stats.Event_sim.measured_throughput))

let scatter_schedule_cmd =
  let periods =
    Arg.(value & opt int 10 & info [ "periods" ] ~docv:"N" ~doc:"Simulation periods.")
  in
  Cmd.v
    (Cmd.info "scatter-schedule"
       ~doc:"Build and simulate the schedule realizing Multicast-UB")
    Term.(const scatter_schedule $ platform_arg $ periods $ trace_arg $ metrics_arg)

(* --- resilience --- *)

let resilience file kind seed n_targets kill_edges kill_nodes degrades at periods online
    max_attempts drop_order storm storm_k incremental jobs trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  with_seed_reporting ~seed @@ fun () ->
  let p =
    match file with
    | Some _ -> read_platform file
    | None ->
      let rng = Random.State.make [| seed |] in
      platform_of_kind rng kind ~n_targets
  in
  let at =
    match Rat.of_string at with
    | r -> r
    | exception _ -> failwith ("bad --at time: " ^ at)
  in
  let scenario =
    List.map (fun (u, v) -> Fault.Kill_edge { src = u; dst = v; at }) kill_edges
    @ List.map (fun v -> Fault.Kill_node { node = v; at }) kill_nodes
    @ List.map
        (fun (u, v, f) ->
          match Rat.of_string f with
          | factor -> Fault.Degrade_edge { src = u; dst = v; at; factor }
          | exception _ -> failwith ("bad degrade factor: " ^ f))
        degrades
  in
  let scenario =
    match storm with
    | None -> scenario
    | Some s ->
      let rng = Random.State.make [| seed; 6007 |] in
      scenario
      @ (match s with
        | "burst" -> Fault.random_burst rng p ~k:storm_k ~window:Rat.one ~at
        | "endpoint" -> Fault.shared_endpoint_kills rng p ~endpoints:storm_k ~at
        | "subtree" -> Fault.subtree_outage rng p ~at
        | other -> failwith ("unknown --storm kind: " ^ other))
  in
  if scenario = [] then
    failwith "no fault events: pass --kill-edge, --kill-node, --degrade or --storm";
  (match Fault.validate p scenario with Ok () -> () | Error e -> failwith e);
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "scenario: %s\n" (Fault.describe scenario);
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r -> (
    let set = Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ] in
    let sched = Schedule.of_tree_set set in
    (match Schedule.check sched with
    | Ok () -> ()
    | Error e -> failwith ("baseline schedule check failed: " ^ e));
    let periods = max periods (Schedule.init_periods sched + 3) in
    (* The pristine and faulted replays are independent; run them on the
       pool (order-preserving, so the output is the same for any --jobs). *)
    let base, fs =
      match
        Pool.map ~jobs
          (fun run -> run ())
          [
            (fun () -> `Base (Event_sim.run sched ~periods));
            (fun () ->
              `Faulted (Event_sim.run_with_faults sched ~faults:scenario ~periods));
          ]
      with
      | [ `Base b; `Faulted fs ] -> (b, fs)
      | _ -> assert false
    in
    (match base with
    | Error e -> failwith ("baseline replay failed: " ^ e)
    | Ok stats ->
      Printf.printf "baseline: throughput %.6f (replay measured %.6f over %d periods)\n"
        (Rat.to_float sched.Schedule.throughput)
        stats.Event_sim.measured_throughput periods);
    Printf.printf
      "under faults: %d deliveries lost, %d deliveries made, %d multicasts still \
       complete, surviving throughput %.6f\n"
      (List.length fs.Event_sim.f_losses)
      fs.Event_sim.f_delivered fs.Event_sim.f_completed fs.Event_sim.f_measured_throughput;
    if online then begin
      let policy =
        let d = Recovery_loop.default_policy p in
        {
          d with
          Recovery_loop.max_attempts;
          horizon_periods = periods;
          drop_order = (if drop_order = [] then d.Recovery_loop.drop_order else drop_order);
        }
      in
      match Recovery_loop.run ~policy p sched scenario with
      | Error e -> failwith ("recovery policy rejected: " ^ e)
      | Ok o -> (
        Format.printf "%a@." Recovery_loop.pp_outcome o;
        print_perf_counters ();
        (* Unrecovered runs exit nonzero so CI and scripts can detect them. *)
        match o.Recovery_loop.final with
        | `Fallback _ -> exit_with_seed ~seed 1
        | _ -> ())
    end
    else
    match
      if incremental then Repair.plan_incremental ~before:sched p (Fault.damage scenario)
      else Repair.plan ~before:sched p (Fault.damage scenario)
    with
    | Error e -> failwith ("repair failed: " ^ e)
    | Ok rep ->
      (match Schedule.check rep.Repair.schedule with
      | Ok () -> ()
      | Error e -> failwith ("repaired schedule check failed: " ^ e));
      let rp = max periods (Schedule.init_periods rep.Repair.schedule + 3) in
      (match Event_sim.run rep.Repair.schedule ~periods:rp with
      | Error e -> failwith ("repaired schedule replay failed: " ^ e)
      | Ok stats ->
        Printf.printf
          "repaired schedule verified: Schedule.check OK, replay measured %.6f over %d \
           periods\n"
          stats.Event_sim.measured_throughput rp);
      Format.printf "%a@." Repair.pp_report rep;
      print_perf_counters ())

let resilience_cmd =
  let kind =
    let doc = "Platform kind when no file is given (see $(b,generate))." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets for generated platforms." in
    Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let kill_edge =
    let doc = "Kill the directed edge $(docv) at time --at (repeatable)." in
    Arg.(value & opt_all (pair ~sep:',' int int) [] & info [ "kill-edge" ] ~docv:"U,V" ~doc)
  in
  let kill_node =
    let doc = "Kill node $(docv) and all its ports at time --at (repeatable)." in
    Arg.(value & opt_all int [] & info [ "kill-node" ] ~docv:"V" ~doc)
  in
  let degrade =
    let doc = "Slow edge U,V down by factor F (a rational >= 1) at time --at (repeatable)." in
    Arg.(value & opt_all (t3 ~sep:',' int int string) [] & info [ "degrade" ] ~docv:"U,V,F" ~doc)
  in
  let at =
    let doc = "Fire time of every fault event (rational)." in
    Arg.(value & opt string "0" & info [ "at" ] ~docv:"T" ~doc)
  in
  let periods =
    Arg.(value & opt int 12 & info [ "periods" ] ~docv:"N" ~doc:"Simulation periods.")
  in
  let online =
    let doc =
      "Drive the online recovery controller (retry/backoff, degraded mode, event log) \
       instead of the single-shot repair."
    in
    Arg.(value & flag & info [ "online" ] ~doc)
  in
  let max_attempts =
    let doc = "Re-plan attempts before entering degraded mode (with --online)." in
    Arg.(value & opt int 5 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let drop_order =
    let doc =
      "Degraded-mode sacrifice order: targets dropped first when the survivor cannot \
       serve everyone (with --online; defaults to highest-numbered first)."
    in
    Arg.(value & opt (list int) [] & info [ "drop-order" ] ~docv:"V1,V2,..." ~doc)
  in
  let storm =
    let doc =
      "Add a seeded correlated failure storm to the scenario: $(b,burst) (k kills \
       inside a one-unit window), $(b,endpoint) (every link of k shared endpoints), \
       or $(b,subtree) (a MAN router and all its LAN hosts)."
    in
    Arg.(value & opt (some string) None & info [ "storm" ] ~docv:"KIND" ~doc)
  in
  let storm_k =
    let doc = "Burst size / endpoint count for --storm." in
    Arg.(value & opt int 3 & info [ "storm-k" ] ~docv:"K" ~doc)
  in
  let incremental =
    let doc =
      "Use the O(damage) incremental repair (patch the running schedule, full re-plan \
       fallback) instead of the full re-plan for the single-shot repair."
    in
    Arg.(value & flag & info [ "incremental" ] ~doc)
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:"Inject failures into a replay, re-plan on the survivors, report retention")
    Term.(
      const resilience $ platform_arg $ kind $ seed_arg $ n_targets $ kill_edge $ kill_node
      $ degrade $ at $ periods $ online $ max_attempts $ drop_order $ storm $ storm_k
      $ incremental $ jobs_arg $ trace_arg $ metrics_arg)

(* --- robust --- *)

(* Seeded correlated storms in the robust planner's vocabulary: cycle
   through the three generator families so a small count already mixes
   bursts, shared endpoints and subtree outages. *)
let storm_failures p ~seed ~storms =
  List.init storms (fun i ->
      let rng = Random.State.make [| seed; 6007; i |] in
      let name, scenario =
        match i mod 3 with
        | 0 -> ("burst", Fault.random_burst rng p ~k:3 ~window:Rat.one ~at:Rat.zero)
        | 1 -> ("endpoint", Fault.shared_endpoint_kills rng p ~endpoints:2 ~at:Rat.zero)
        | _ -> ("subtree", Fault.subtree_outage rng p ~at:Rat.zero)
      in
      Robust_plan.Correlated
        (Printf.sprintf "%s-storm %d: %s" name i (Fault.describe scenario),
         Fault.damage scenario))

let robust file kind seed n_targets loss_bound max_scenarios with_lb storms jobs trace
    metrics =
  with_observability ~trace ~metrics @@ fun () ->
  with_seed_reporting ~seed @@ fun () ->
  let p =
    match file with
    | Some _ -> read_platform file
    | None ->
      let rng = Random.State.make [| seed |] in
      platform_of_kind rng kind ~n_targets
  in
  Printf.printf "%s\n" (Platform.describe p);
  let extra_failures = storm_failures p ~seed ~storms in
  match Robust_plan.plan ~loss_bound ~max_scenarios ~seed ~with_lb ~extra_failures ~jobs p with
  | Error e -> failwith e
  | Ok r ->
    Format.printf "%a@." Robust_plan.pp_report r;
    let chosen = r.Robust_plan.chosen in
    (match Schedule.check chosen.Robust_plan.schedule with
    | Ok () -> Printf.printf "chosen schedule: Schedule.check OK\n"
    | Error e -> failwith ("chosen schedule fails check: " ^ e));
    Printf.printf "critical links of the nominal plan: %s\n"
      (String.concat ", "
         (List.map
            (fun (u, v) -> Robust_plan.describe_failure p (Robust_plan.Link (u, v)))
            r.Robust_plan.critical_edges));
    if with_lb then begin
      Printf.printf "per-scenario survivor LB references (chosen plan):\n";
      List.iter
        (fun (s : Robust_plan.scenario_score) ->
          Printf.printf "  %-24s retention %6.1f%%  survivor LB %s\n"
            (Robust_plan.describe_failure p s.Robust_plan.sc_failure)
            (100. *. s.Robust_plan.sc_retention)
            (match s.Robust_plan.sc_survivor_lb with
            | None -> "infeasible"
            | Some lb -> Printf.sprintf "%.6f" lb))
        chosen.Robust_plan.cand_score.Robust_plan.scenario_scores
    end;
    print_perf_counters ()

let robust_cmd =
  let kind =
    let doc = "Platform kind when no file is given (see $(b,generate))." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets for generated platforms." in
    Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let loss_bound =
    let doc = "Maximum tolerated nominal-throughput loss (fraction of the best nominal)." in
    Arg.(value & opt float 0.1 & info [ "loss-bound" ] ~docv:"F" ~doc)
  in
  let max_scenarios =
    let doc = "Cap on evaluated failure scenarios (larger sets are sampled and logged)." in
    Arg.(value & opt int 64 & info [ "max-scenarios" ] ~docv:"N" ~doc)
  in
  let with_lb =
    let doc = "Also solve the Multicast-LB on every survivor (per-scenario reference)." in
    Arg.(value & flag & info [ "with-lb" ] ~doc)
  in
  let storms =
    let doc =
      "Additionally score $(docv) seeded correlated storms (bursts, shared-endpoint \
       outages, subtree outages) alongside the single-failure scenarios."
    in
    Arg.(value & opt int 0 & info [ "storms" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Proactive robust planning: maximize worst-case single-failure retention")
    Term.(
      const robust $ platform_arg $ kind $ seed_arg $ n_targets $ loss_bound
      $ max_scenarios $ with_lb $ storms $ jobs_arg $ trace_arg $ metrics_arg)

(* --- soak --- *)

let rat_arg ~what s =
  match Rat.of_string s with
  | r -> r
  | exception _ -> failwith (Printf.sprintf "bad %s: %s" what s)

let soak file kind seed n_targets horizon scenario_kind mtbf mttr flap_links flaps
    mean_up mean_down waves wave_period wave_factor wave_rate controller tokens
    token_refill hysteresis min_availability show_log slo timeseries trace metrics =
  let objectives = parse_slo_specs slo in
  let sink = make_sink ~timeseries ~slo ~trace in
  with_observability ~counters:(sink_counters sink) ~trace ~metrics @@ fun () ->
  with_seed_reporting ~seed @@ fun () ->
  let p =
    match file with
    | Some _ -> read_platform file
    | None ->
      let rng = Random.State.make [| seed |] in
      platform_of_kind rng kind ~n_targets
  in
  let horizon = rat_arg ~what:"--horizon" horizon in
  if Rat.sign horizon <= 0 then failwith "--horizon must be positive";
  let rng = Random.State.make [| seed; 7001 |] in
  let scenario =
    match scenario_kind with
    | "renewal" -> Fault.renewal_link_faults rng p ~mtbf ~mttr ~horizon
    | "renewal-nodes" -> Fault.renewal_node_faults rng p ~mtbf ~mttr ~horizon
    | "renewal-mixed" ->
      (* Node failures are rarer than link failures on real platforms;
         double the node MTBF so mixed runs are link-dominated. *)
      Fault.renewal_link_faults rng p ~mtbf ~mttr ~horizon
      @ Fault.renewal_node_faults rng p ~mtbf:(2. *. mtbf) ~mttr ~horizon
    | "flapping" ->
      Fault.flapping_links rng p ~links:flap_links ~flaps ~mean_up ~mean_down
        ~at:Rat.zero
    | "diurnal" ->
      Fault.diurnal_degradation rng p ~waves
        ~period:(rat_arg ~what:"--wave-period" wave_period)
        ~factor:(rat_arg ~what:"--wave-factor" wave_factor)
        ~rate:wave_rate
    | other -> failwith ("unknown --scenario kind: " ^ other)
  in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "scenario: %s, %d fault events, horizon %s\n" scenario_kind
    (List.length scenario) (Rat.to_string horizon);
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r -> (
    let sched =
      Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
    in
    (match Schedule.check sched with
    | Ok () -> ()
    | Error e -> failwith ("baseline schedule check failed: " ^ e));
    let base = Soak.default_config p in
    let controller =
      match controller with
      | "damped" -> Soak.Damped Soak.default_damping
      | "naive" -> Soak.Naive
      | other -> failwith ("unknown --controller: " ^ other)
    in
    let config =
      { base with Soak.controller; token_capacity = tokens; token_refill; hysteresis }
    in
    match Soak.run ~config ?telemetry:sink ~slo:objectives p sched scenario ~horizon with
    | Error e -> failwith ("soak rejected: " ^ e)
    | Ok rep ->
      Format.printf "%a@." Soak.pp_report rep;
      if show_log then begin
        Printf.printf "event log:\n";
        List.iter (fun ev -> Format.printf "  %a@." Soak.pp_event ev) rep.Soak.sk_log
      end;
      print_slo_events objectives rep.Soak.sk_slo_events;
      export_timeseries sink timeseries;
      print_perf_counters ();
      (match min_availability with
      | Some m when rep.Soak.sk_availability < m ->
        Printf.eprintf "soak: availability %.4f below the required %.4f\n%!"
          rep.Soak.sk_availability m;
        exit_with_seed ~seed 1
      | _ -> ()))

let soak_cmd =
  let kind =
    let doc = "Platform kind when no file is given (see $(b,generate))." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets for generated platforms." in
    Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let horizon =
    let doc = "Simulated soak horizon (rational time units)." in
    Arg.(value & opt string "600" & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let scenario =
    let doc =
      "Fault timeline: $(b,renewal) (per-link fail/repair renewal process), \
       $(b,renewal-nodes) (per-node), $(b,renewal-mixed) (both, node MTBF doubled), \
       $(b,flapping) (a few links cycling up/down fast), or $(b,diurnal) \
       (congestion waves degrading links, then clearing)."
    in
    Arg.(value & opt string "renewal" & info [ "scenario" ] ~docv:"KIND" ~doc)
  in
  let mtbf =
    let doc =
      "Mean time between failures for the renewal scenarios (per component; with ~60 \
       links, mtbf 1500 over a 600-unit horizon means roughly 25 failures)."
    in
    Arg.(value & opt float 1500. & info [ "mtbf" ] ~docv:"T" ~doc)
  in
  let mttr =
    let doc = "Mean time to repair for the renewal scenarios." in
    Arg.(value & opt float 30. & info [ "mttr" ] ~docv:"T" ~doc)
  in
  let flap_links =
    let doc = "Number of flapping links (with --scenario flapping)." in
    Arg.(value & opt int 3 & info [ "flap-links" ] ~docv:"N" ~doc)
  in
  let flaps =
    let doc = "Kill/revive cycles per flapping link." in
    Arg.(value & opt int 6 & info [ "flaps" ] ~docv:"N" ~doc)
  in
  let mean_up =
    let doc = "Mean up-time between flaps." in
    Arg.(value & opt float 40. & info [ "mean-up" ] ~docv:"T" ~doc)
  in
  let mean_down =
    let doc = "Mean down-time per flap." in
    Arg.(value & opt float 5. & info [ "mean-down" ] ~docv:"T" ~doc)
  in
  let waves =
    let doc = "Number of congestion waves (with --scenario diurnal)." in
    Arg.(value & opt int 4 & info [ "waves" ] ~docv:"N" ~doc)
  in
  let wave_period =
    let doc = "Length of one congestion wave (rational)." in
    Arg.(value & opt string "150" & info [ "wave-period" ] ~docv:"T" ~doc)
  in
  let wave_factor =
    let doc = "Degradation factor applied during a wave (rational >= 1)." in
    Arg.(value & opt string "3" & info [ "wave-factor" ] ~docv:"F" ~doc)
  in
  let wave_rate =
    let doc = "Per-link probability of degrading in each wave." in
    Arg.(value & opt float 0.25 & info [ "wave-rate" ] ~docv:"P" ~doc)
  in
  let controller =
    let doc =
      "Recovery controller: $(b,damped) (flap damping, re-plan token bucket, \
       re-integration hysteresis) or $(b,naive) (full re-plan on every change — \
       the ablation baseline)."
    in
    Arg.(value & opt string "damped" & info [ "controller" ] ~docv:"C" ~doc)
  in
  let tokens =
    let doc = "Full-re-plan token bucket capacity (0 = incremental patches only)." in
    Arg.(value & opt int 4 & info [ "tokens" ] ~docv:"N" ~doc)
  in
  let token_refill =
    let doc = "Simulated time to regain one re-plan token." in
    Arg.(value & opt float 60. & info [ "token-refill" ] ~docv:"T" ~doc)
  in
  let hysteresis =
    let doc = "Minimum relative throughput gain to re-integrate healed capacity." in
    Arg.(value & opt float 0.05 & info [ "hysteresis" ] ~docv:"F" ~doc)
  in
  let min_availability =
    let doc = "Exit nonzero when availability lands below $(docv) (CI gate)." in
    Arg.(value & opt (some float) None & info [ "min-availability" ] ~docv:"F" ~doc)
  in
  let show_log =
    let doc = "Print the full timestamped controller event log." in
    Arg.(value & flag & info [ "log" ] ~doc)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Chaos soak: run the recovery controller continuously over a fail/repair \
             timeline")
    Term.(
      const soak $ platform_arg $ kind $ seed_arg $ n_targets $ horizon $ scenario
      $ mtbf $ mttr $ flap_links $ flaps $ mean_up $ mean_down $ waves $ wave_period
      $ wave_factor $ wave_rate $ controller $ tokens $ token_refill $ hysteresis
      $ min_availability $ show_log $ slo_arg $ timeseries_arg $ trace_arg $ metrics_arg)

(* --- sessions --- *)

let sessions file kind seed n_targets horizon arrival_rate hold_mean demand_lo
    demand_hi flash_rate epoch mode jobs scenario_kind mtbf mttr burst_k burst_at
    min_admitted show_digest show_epochs slo slo_enforce timeseries trace metrics =
  let objectives = parse_slo_specs slo in
  let sink = make_sink ~timeseries ~slo ~trace in
  with_observability ~counters:(sink_counters sink) ~trace ~metrics @@ fun () ->
  with_seed_reporting ~seed @@ fun () ->
  let p =
    match file with
    | Some _ -> read_platform file
    | None ->
      let rng = Random.State.make [| seed |] in
      platform_of_kind rng kind ~n_targets
  in
  let horizon = rat_arg ~what:"--horizon" horizon in
  if Rat.sign horizon <= 0 then failwith "--horizon must be positive";
  let params =
    {
      Workload.default_params with
      arrival_rate;
      hold_mean;
      demand_frac = (demand_lo, demand_hi);
      flash_rate;
    }
  in
  (match Workload.validate_params params with
  | Ok () -> ()
  | Error e -> failwith e);
  (* Distinct seed streams so tweaking the fault scenario never perturbs
     the offered workload (the same separation soak uses). *)
  let workload =
    Workload.generate (Random.State.make [| seed; 9001 |]) p params ~horizon
  in
  let frng = Random.State.make [| seed; 9002 |] in
  let faults =
    match scenario_kind with
    | "none" -> []
    | "renewal" -> Fault.renewal_link_faults frng p ~mtbf ~mttr ~horizon
    | "burst" ->
      Fault.random_burst frng p ~k:burst_k ~window:Rat.one
        ~at:(rat_arg ~what:"--burst-at" burst_at)
    | "flapping" ->
      Fault.flapping_links frng p ~links:3 ~flaps:6 ~mean_up:40. ~mean_down:5.
        ~at:Rat.zero
    | other -> failwith ("unknown --scenario kind: " ^ other)
  in
  let mode =
    match mode with
    | "incremental" -> `Incremental
    | "cold" -> `Cold
    | other -> failwith ("unknown --mode: " ^ other)
  in
  let config =
    {
      Horizon.default_config with
      epoch = rat_arg ~what:"--epoch" epoch;
      replan_mode = mode;
      jobs;
    }
  in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "workload: %s\n" (Workload.describe workload);
  Printf.printf "scenario: %s, %d fault events, horizon %s, epoch %s (%s)\n"
    scenario_kind (List.length faults) (Rat.to_string horizon)
    (Rat.to_string config.Horizon.epoch)
    (match mode with `Incremental -> "incremental" | `Cold -> "cold");
  match
    Horizon.run ~config ~faults ?telemetry:sink ~slo:objectives ~slo_enforce p workload
      ~horizon
  with
  | Error e -> failwith ("sessions rejected: " ^ e)
  | Ok rep ->
    Format.printf "%a@." Horizon.pp_report rep;
    if show_epochs then begin
      Printf.printf "epoch log:\n";
      List.iter
        (fun e ->
          if
            e.Horizon.ep_arrivals + e.Horizon.ep_replans + e.Horizon.ep_suspended > 0
          then
            Printf.printf
              "  epoch %3d t=%-6s %d arrivals, %d admitted, %d rejected, %d \
               preempted, %d replans (%d skipped), %d active\n"
              e.Horizon.ep_index
              (Rat.to_string e.Horizon.ep_time)
              e.Horizon.ep_arrivals e.Horizon.ep_admitted e.Horizon.ep_rejected
              e.Horizon.ep_preempted e.Horizon.ep_replans
              e.Horizon.ep_replans_skipped e.Horizon.ep_active)
        rep.Horizon.hz_epochs
    end;
    if show_digest then Printf.printf "digest: %s\n" (Horizon.digest rep);
    print_slo_events objectives rep.Horizon.hz_slo_events;
    export_timeseries sink timeseries;
    print_perf_counters ();
    (match min_admitted with
    | Some m when rep.Horizon.hz_admitted < m ->
      Printf.eprintf "sessions: admitted %d below the required %d\n%!"
        rep.Horizon.hz_admitted m;
      exit_with_seed ~seed 1
    | _ -> ())

let sessions_cmd =
  let kind =
    let doc = "Platform kind when no file is given (see $(b,generate))." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets for generated platforms." in
    Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let horizon =
    let doc = "Simulated horizon (rational time units)." in
    Arg.(value & opt string "300" & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let arrival_rate =
    let doc = "Mean session arrivals per time unit." in
    Arg.(value & opt float 0.1 & info [ "arrival-rate" ] ~docv:"R" ~doc)
  in
  let hold_mean =
    let doc = "Mean session holding time (heavy-tailed Pareto)." in
    Arg.(value & opt float 80. & info [ "hold-mean" ] ~docv:"T" ~doc)
  in
  let demand_lo =
    let doc = "Lower demand fraction of a session's standalone capacity." in
    Arg.(value & opt float 0.3 & info [ "demand-lo" ] ~docv:"F" ~doc)
  in
  let demand_hi =
    let doc = "Upper demand fraction of a session's standalone capacity." in
    Arg.(value & opt float 0.9 & info [ "demand-hi" ] ~docv:"F" ~doc)
  in
  let flash_rate =
    let doc = "Flash crowds per time unit (0 disables them)." in
    Arg.(value & opt float 0.005 & info [ "flash-rate" ] ~docv:"R" ~doc)
  in
  let epoch =
    let doc = "Planning epoch length (rational time units)." in
    Arg.(value & opt string "5" & info [ "epoch" ] ~docv:"T" ~doc)
  in
  let mode =
    let doc =
      "Re-planning mode: $(b,incremental) (change-driven, warm-started) or \
       $(b,cold) (every live session from scratch each epoch — the S1 ablation \
       baseline). Both modes admit the same sessions at the same rates."
    in
    Arg.(value & opt string "incremental" & info [ "mode" ] ~docv:"M" ~doc)
  in
  let scenario =
    let doc =
      "Fault timeline: $(b,none), $(b,renewal) (per-link fail/repair renewal \
       process), $(b,burst) (one correlated failure burst), or $(b,flapping)."
    in
    Arg.(value & opt string "none" & info [ "scenario" ] ~docv:"KIND" ~doc)
  in
  let mtbf =
    let doc = "Mean time between failures (renewal scenario)." in
    Arg.(value & opt float 1500. & info [ "mtbf" ] ~docv:"T" ~doc)
  in
  let mttr =
    let doc = "Mean time to repair (renewal scenario)." in
    Arg.(value & opt float 30. & info [ "mttr" ] ~docv:"T" ~doc)
  in
  let burst_k =
    let doc = "Entities killed by the burst scenario." in
    Arg.(value & opt int 4 & info [ "burst-k" ] ~docv:"N" ~doc)
  in
  let burst_at =
    let doc = "Burst instant (rational)." in
    Arg.(value & opt string "150" & info [ "burst-at" ] ~docv:"T" ~doc)
  in
  let min_admitted =
    let doc = "Exit nonzero when fewer than $(docv) sessions are admitted (CI gate)." in
    Arg.(value & opt (some int) None & info [ "min-admitted" ] ~docv:"N" ~doc)
  in
  let show_digest =
    let doc =
      "Print the decision digest (bit-identical across $(b,--jobs) values)."
    in
    Arg.(value & flag & info [ "digest" ] ~doc)
  in
  let show_epochs =
    let doc = "Print the per-epoch log (epochs with any activity)." in
    Arg.(value & flag & info [ "epochs" ] ~doc)
  in
  let slo_enforce =
    let doc =
      "Feed per-session burn rates back into the planner: sessions burning their \
       error budget apply re-plans first and are degraded/preempted last within \
       their priority class. Admission outcomes are unchanged; worst-case \
       delivered fraction improves."
    in
    Arg.(value & flag & info [ "slo-enforce" ] ~doc)
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:"Online session engine: rolling-horizon admission, incremental \
             re-planning and priority preemption over a churning session stream")
    Term.(
      const sessions $ platform_arg $ kind $ seed_arg $ n_targets $ horizon
      $ arrival_rate $ hold_mean $ demand_lo $ demand_hi $ flash_rate $ epoch $ mode
      $ jobs_arg $ scenario $ mtbf $ mttr $ burst_k $ burst_at $ min_admitted
      $ show_digest $ show_epochs $ slo_arg $ slo_enforce $ timeseries_arg $ trace_arg
      $ metrics_arg)

(* --- incidents --- *)

(* Seeded soak under SLO objectives, distilled into incident timelines:
   fault -> breach -> repair -> recovery chains. Same seed streams as the
   soak subcommand, so `mcast incidents --seed S` narrates the run
   `mcast soak --seed S` reports on. *)

let incidents file kind seed n_targets horizon mtbf mttr slo lookback json_out
    timeseries trace metrics =
  let slo = if slo = [] then [ "soak.availability>=0.995" ] else slo in
  let objectives = parse_slo_specs slo in
  let sink = make_sink ~timeseries ~slo ~trace in
  with_observability ~counters:(sink_counters sink) ~trace ~metrics @@ fun () ->
  with_seed_reporting ~seed @@ fun () ->
  let p =
    match file with
    | Some _ -> read_platform file
    | None ->
      let rng = Random.State.make [| seed |] in
      platform_of_kind rng kind ~n_targets
  in
  let horizon = rat_arg ~what:"--horizon" horizon in
  if Rat.sign horizon <= 0 then failwith "--horizon must be positive";
  let rng = Random.State.make [| seed; 7001 |] in
  let scenario = Fault.renewal_link_faults rng p ~mtbf ~mttr ~horizon in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "scenario: renewal, %d fault events, horizon %s; objectives: %s\n"
    (List.length scenario) (Rat.to_string horizon)
    (String.concat ", " (List.map Slo.spec objectives));
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r -> (
    let sched =
      Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
    in
    (match Schedule.check sched with
    | Ok () -> ()
    | Error e -> failwith ("baseline schedule check failed: " ^ e));
    match Soak.run ?telemetry:sink ~slo:objectives p sched scenario ~horizon with
    | Error e -> failwith ("soak rejected: " ^ e)
    | Ok rep ->
      (* Repair actions as the incident layer sees them: recovery episodes
         and capacity re-integrations from the controller log. *)
      let repairs =
        List.filter_map
          (function
            | Soak.Episode { at; outcome; patched } when outcome <> "cached" ->
              Some
                ( Rat.to_float at,
                  Printf.sprintf "recovery episode: %s%s" outcome
                    (if patched then " (incremental patch)" else "") )
            | Soak.Reintegrated { at; before; after } ->
              Some
                ( Rat.to_float at,
                  Printf.sprintf "reintegrated healed capacity %.3f -> %.3f" before
                    after )
            | _ -> None)
          rep.Soak.sk_log
      in
      let incidents =
        Incident.build ~lookback ~faults:scenario ~repairs rep.Soak.sk_slo_events
      in
      print_string (Incident.to_text incidents);
      export_timeseries sink timeseries;
      (match json_out with
      | None -> ()
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Incident.to_json incidents));
        Printf.printf "incidents json: wrote %s\n" path))

let incidents_cmd =
  let kind =
    let doc = "Platform kind when no file is given (see $(b,generate))." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets for generated platforms." in
    Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let horizon =
    let doc = "Simulated soak horizon (rational time units)." in
    Arg.(value & opt string "600" & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let mtbf =
    let doc = "Mean time between failures (per link)." in
    Arg.(value & opt float 1500. & info [ "mtbf" ] ~docv:"T" ~doc)
  in
  let mttr =
    let doc = "Mean time to repair." in
    Arg.(value & opt float 30. & info [ "mttr" ] ~docv:"T" ~doc)
  in
  let lookback =
    let doc =
      "Attribute faults up to $(docv) time units before a breach as probable causes."
    in
    Arg.(value & opt float 25. & info [ "lookback" ] ~docv:"T" ~doc)
  in
  let json_out =
    let doc = "Write the incident list as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "incidents"
       ~doc:"Soak under SLO objectives and report fault -> breach -> repair -> \
             recovery incident timelines")
    Term.(
      const incidents $ platform_arg $ kind $ seed_arg $ n_targets $ horizon $ mtbf
      $ mttr $ slo_arg $ lookback $ json_out $ timeseries_arg $ trace_arg $ metrics_arg)

(* --- profile --- *)

(* Run one of the existing workloads under tracing and distill the span
   buffer into a profile. The workload bodies are one-line condensations of
   the robust / resilience / heuristics subcommands: the product here is
   the profile (self-time table, LP attribution, pool utilization), not the
   planning report. *)

let profile_workloads = [ "robust"; "resilience"; "heuristics"; "sessions"; "soak" ]

let run_profile_workload ~workload ~seed ~loss_bound ~max_scenarios ~with_lb ~jobs
    ~periods ~tries p =
  match workload with
  | "robust" -> (
    match Robust_plan.plan ~loss_bound ~max_scenarios ~seed ~with_lb ~jobs p with
    | Error e -> failwith e
    | Ok r ->
      let c = r.Robust_plan.chosen in
      Printf.printf
        "workload robust: chose %s (worst-case retention %.1f%%, nominal %.6f)\n"
        c.Robust_plan.label
        (100. *. c.Robust_plan.cand_score.Robust_plan.worst_case)
        c.Robust_plan.cand_score.Robust_plan.nominal)
  | "resilience" -> (
    match Mcph.run p with
    | None -> failwith "some target is unreachable"
    | Some r -> (
      let sched =
        Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
      in
      let periods = max periods (Schedule.init_periods sched + 3) in
      let rng = Random.State.make [| seed; 9011 |] in
      let scenario =
        Fault.random_mixed_kills rng p ~link_rate:0.1 ~node_rate:0.05
          ~at:(Rat.mul (Rat.of_int 2) sched.Schedule.period)
      in
      let fs = Event_sim.run_with_faults sched ~faults:scenario ~periods in
      Printf.printf "workload resilience: %d deliveries lost, %d made under %s\n"
        (List.length fs.Event_sim.f_losses)
        fs.Event_sim.f_delivered (Fault.describe scenario);
      match Repair.plan ~before:sched p (Fault.damage scenario) with
      | Ok rep ->
        Printf.printf "workload resilience: repair retention %.3f\n" rep.Repair.retention
      | Error e -> Printf.printf "workload resilience: unrecoverable (%s)\n" e))
  | "heuristics" ->
    let report = Heuristics.run_all ?max_tries_per_round:tries p in
    let best =
      List.fold_left
        (fun acc (e : Heuristics.entry) ->
          match acc with
          | Some (b : Heuristics.entry) when b.Heuristics.period <= e.Heuristics.period ->
            acc
          | _ -> Some e)
        None report.Heuristics.entries
    in
    (match best with
    | None -> ()
    | Some e ->
      Printf.printf "workload heuristics: %d methods, best %s (period %.4f)\n"
        (List.length report.Heuristics.entries)
        e.Heuristics.name e.Heuristics.period)
  | "sessions" -> (
    let horizon = Rat.of_int 200 in
    let workload =
      Workload.generate
        (Random.State.make [| seed; 9001 |])
        p Workload.default_params ~horizon
    in
    let config = { Horizon.default_config with Horizon.jobs } in
    match Horizon.run ~config p workload ~horizon with
    | Error e -> failwith e
    | Ok rep ->
      Printf.printf
        "workload sessions: %d admitted, %d rejected, %d re-plans (%d skipped)\n"
        rep.Horizon.hz_admitted rep.Horizon.hz_rejected rep.Horizon.hz_replans
        rep.Horizon.hz_replans_skipped)
  | "soak" -> (
    match Mcph.run p with
    | None -> failwith "some target is unreachable"
    | Some r -> (
      let sched =
        Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
      in
      let horizon = Rat.of_int 400 in
      let rng = Random.State.make [| seed; 7001 |] in
      let scenario = Fault.renewal_link_faults rng p ~mtbf:400. ~mttr:25. ~horizon in
      match Soak.run p sched scenario ~horizon with
      | Error e -> failwith e
      | Ok rep ->
        Printf.printf "workload soak: availability %.4f, %d full re-plans, %d patches\n"
          rep.Soak.sk_availability rep.Soak.sk_full_replans rep.Soak.sk_patches))
  | other ->
    failwith
      (Printf.sprintf "unknown workload %s (expected one of: %s)" other
         (String.concat ", " profile_workloads))

(* LP-solve attribution from the metrics delta: solves/pivots by kind,
   revised-to-exact fallbacks, Multicast-LB cut rounds, the per-caller
   cache traffic (the dynamic lp_cache.{hits,misses}.<caller>
   counters) and the pool summary. *)
let print_lp_attribution (delta : Metrics.snapshot) =
  let c name =
    match Metrics.find delta name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  let lb_rounds, lb_solves =
    match Metrics.find delta "formulations.lb_cut_rounds" with
    | Some (Metrics.Histogram h) -> (int_of_float h.Metrics.h_sum, h.Metrics.h_count)
    | _ -> (0, 0)
  in
  Printf.printf "lp attribution:\n";
  Printf.printf
    "  solves %d float + %d exact; pivots %d float + %d exact; fallbacks %d; LB cut \
     rounds %d over %d LB solve(s)\n"
    (c "lp.solves.float") (c "lp.solves.exact") (c "lp.pivots.float")
    (c "lp.pivots.exact")
    (c "solver_chain.fallbacks")
    lb_rounds lb_solves;
  let callers = Hashtbl.create 8 in
  let note prefix is_hits =
    let pl = String.length prefix in
    List.iter
      (fun (name, v) ->
        if String.length name > pl && String.sub name 0 pl = prefix then
          match v with
          | Metrics.Counter n ->
            let caller = String.sub name pl (String.length name - pl) in
            let h, m = Option.value ~default:(0, 0) (Hashtbl.find_opt callers caller) in
            Hashtbl.replace callers caller (if is_hits then (h + n, m) else (h, m + n))
          | _ -> ())
      delta
  in
  note "lp_cache.hits." true;
  note "lp_cache.misses." false;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) callers []) in
  if rows = [] then Printf.printf "  lp cache: no lookups recorded\n"
  else
    List.iter
      (fun (caller, (h, m)) ->
        let total = h + m in
        Printf.printf "  lp cache [%s]: %d hits / %d misses (%.1f%% hit rate)\n" caller h
          m
          (if total = 0 then 0.0 else 100. *. float_of_int h /. float_of_int total))
      rows;
  let maps = c "pool.maps" and tasks = c "pool.tasks" in
  let util =
    match Metrics.find delta "pool.utilization" with
    | Some (Metrics.Gauge g) -> g
    | _ -> 0.0
  in
  match Metrics.find delta "pool.task_seconds" with
  | Some (Metrics.Histogram h) when h.Metrics.h_count > 0 ->
    Printf.printf
      "  pool: %d map(s), %d task(s), task time %.3fs total (max %.3fs); last map \
       utilization %.0f%%\n"
      maps tasks h.Metrics.h_sum h.Metrics.h_max (100. *. util)
  | _ -> if maps > 0 then Printf.printf "  pool: %d map(s), %d task(s)\n" maps tasks

let profile file kind seed n_targets workload loss_bound max_scenarios with_lb periods
    tries jobs top folded_out json_out trace_out =
  let p =
    match file with
    | Some _ -> read_platform file
    | None ->
      let rng = Random.State.make [| seed |] in
      platform_of_kind rng kind ~n_targets
  in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "profiling workload %s (jobs %d)...\n%!" workload jobs;
  let before = Metrics.snapshot () in
  Trace.enable ~capacity:(1 lsl 18) ();
  (try
     run_profile_workload ~workload ~seed ~loss_bound ~max_scenarios ~with_lb ~jobs
       ~periods ~tries p
   with e ->
     Trace.disable ();
     raise e);
  let events = Trace.events () in
  let dropped = Trace.dropped () in
  (match trace_out with
  | None -> ()
  | Some path ->
    Trace.export path;
    Printf.printf "trace: wrote %d events to %s (%d dropped%s)\n" (List.length events)
      path dropped
      (if dropped > 0 then ": ring full, trace is partial" else ""));
  Trace.disable ();
  let delta = Metrics.delta ~before (Metrics.snapshot ()) in
  let prof = Trace_stats.of_events ~dropped events in
  print_newline ();
  print_string (Trace_stats.to_text ~top prof);
  print_lp_attribution delta;
  (match folded_out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc (Folded.of_events events));
    Printf.printf "folded stacks: wrote %s\n" path);
  match json_out with
  | None -> ()
  | Some path ->
    (* Reindent an embedded JSON document so the wrapper stays readable;
       the first line keeps the wrapper's own indentation. *)
    let indent s =
      match String.split_on_char '\n' (String.trim s) with
      | [] -> s
      | first :: rest ->
        String.concat "\n"
          (first :: List.map (fun l -> if l = "" then l else "  " ^ l) rest)
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Printf.sprintf "  \"workload\": %S,\n" workload);
    Buffer.add_string buf (Printf.sprintf "  \"platform\": %S,\n" (Platform.describe p));
    Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
    Buffer.add_string buf ("  \"metrics\": " ^ indent (Metrics.to_json delta) ^ ",\n");
    Buffer.add_string buf ("  \"profile\": " ^ indent (Trace_stats.to_json prof) ^ "\n");
    Buffer.add_string buf "}\n";
    Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
    Printf.printf "profile json: wrote %s\n" path

let profile_cmd =
  let kind =
    let doc = "Platform kind when no file is given (see $(b,generate))." in
    Arg.(value & opt string "tiers-small" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_targets =
    let doc = "Number of multicast targets for generated platforms." in
    Arg.(value & opt int 6 & info [ "targets" ] ~docv:"N" ~doc)
  in
  let workload =
    let doc =
      "Workload to run under tracing: $(b,robust) (proactive robust planning), \
       $(b,resilience) (fault injection + repair), $(b,heuristics) (the paper's \
       method portfolio), $(b,sessions) (the rolling-horizon session engine) or \
       $(b,soak) (the chaos-soak recovery controller)."
    in
    Arg.(value & opt string "robust" & info [ "workload" ] ~docv:"W" ~doc)
  in
  let loss_bound =
    let doc = "Robust-planning loss bound (workload robust)." in
    Arg.(value & opt float 0.25 & info [ "loss-bound" ] ~docv:"F" ~doc)
  in
  let max_scenarios =
    let doc = "Scenario cap for robust planning (workload robust)." in
    Arg.(value & opt int 48 & info [ "max-scenarios" ] ~docv:"N" ~doc)
  in
  let with_lb =
    let doc = "Solve the survivor Multicast-LB per scenario (workload robust)." in
    Arg.(value & opt bool true & info [ "with-lb" ] ~docv:"BOOL" ~doc)
  in
  let periods =
    Arg.(
      value & opt int 12
      & info [ "periods" ] ~docv:"N" ~doc:"Simulation periods (workload resilience).")
  in
  let tries =
    let doc = "Cap LP probes per improvement round (workload heuristics)." in
    Arg.(value & opt (some int) (Some 3) & info [ "tries" ] ~docv:"K" ~doc)
  in
  let top =
    let doc = "Rows of the self-time table." in
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)
  in
  let folded_out =
    let doc =
      "Write flamegraph folded stacks to $(docv) (feed to flamegraph.pl or \
       speedscope)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  let json_out =
    let doc =
      "Write the profile and the metrics delta as JSON to $(docv) (consumable by \
       $(b,bench --check-against))."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a workload under tracing and print a self-time profile")
    Term.(
      const profile $ platform_arg $ kind $ seed_arg $ n_targets $ workload $ loss_bound
      $ max_scenarios $ with_lb $ periods $ tries $ jobs_arg $ top $ folded_out
      $ json_out $ trace_arg)

(* --- prefix --- *)

let prefix_cmd_run seed universe n_sets bound trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let cover = Set_cover.random rng ~universe ~n_sets ~density:0.4 in
  Format.printf "instance: %a@." Set_cover.pp cover;
  match Set_cover.minimum cover with
  | None -> print_endline "instance not coverable"
  | Some chosen ->
    Printf.printf "minimum cover: %d subsets; bound B = %d\n" (List.length chosen) bound;
    let gadget = Prefix_gadget.build cover ~bound in
    (match Prefix_schedule.scheme_of_cover gadget ~chosen with
    | Error e -> print_endline ("scheme rejected: " ^ e)
    | Ok occ ->
      Printf.printf
        "allocation scheme max occupation: %s -> throughput-1 feasible: %b\n"
        (Rat.to_string (Prefix_schedule.max_occupation occ))
        (Prefix_schedule.is_feasible occ))

let prefix_cmd =
  let universe = Arg.(value & opt int 5 & info [ "universe" ] ~docv:"N" ~doc:"Universe size.") in
  let n_sets = Arg.(value & opt int 4 & info [ "sets" ] ~docv:"K" ~doc:"Number of subsets.") in
  let bound = Arg.(value & opt int 2 & info [ "bound" ] ~docv:"B" ~doc:"Cover size bound.") in
  Cmd.v
    (Cmd.info "prefix" ~doc:"Theorem 5 parallel-prefix gadget walk-through")
    Term.(const prefix_cmd_run $ seed_arg $ universe $ n_sets $ bound $ trace_arg $ metrics_arg)

(* --- gadget --- *)

let gadget seed universe n_sets bound trace metrics =
  with_observability ~trace ~metrics @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let cover = Set_cover.random rng ~universe ~n_sets ~density:0.35 in
  Format.printf "instance: %a@." Set_cover.pp cover;
  let k_star =
    match Set_cover.minimum cover with
    | Some m -> List.length m
    | None -> -1
  in
  let thr, _, ok = Complexity.verify_gadget_correspondence cover ~bound in
  Printf.printf "minimum cover: %d; B = %d\n" k_star bound;
  Printf.printf "best single-tree throughput on the gadget: %.4f (B/K* = %.4f) — %s\n" thr
    (float_of_int bound /. float_of_int k_star)
    (if ok then "Theorem 1 correspondence holds" else "MISMATCH");
  let p = Complexity.gadget cover ~bound in
  match Formulations.multicast_lb p with
  | None -> ()
  | Some s ->
    Printf.printf "Multicast-LB throughput (fractional cover bound): %.4f\n"
      s.Formulations.throughput

let gadget_cmd =
  let universe = Arg.(value & opt int 6 & info [ "universe" ] ~docv:"N" ~doc:"Universe size.") in
  let n_sets = Arg.(value & opt int 4 & info [ "sets" ] ~docv:"K" ~doc:"Number of subsets.") in
  let bound = Arg.(value & opt int 2 & info [ "bound" ] ~docv:"B" ~doc:"Cover size bound.") in
  Cmd.v
    (Cmd.info "gadget" ~doc:"Set-cover gadget and the NP-hardness correspondence")
    Term.(const gadget $ seed_arg $ universe $ n_sets $ bound $ trace_arg $ metrics_arg)

let main_cmd =
  let doc = "steady-state pipelined multicast on heterogeneous platforms" in
  Cmd.group (Cmd.info "mcast" ~version:"1.0.0" ~doc)
    [
      generate_cmd;
      bounds_cmd;
      heuristics_cmd;
      tree_cmd;
      simulate_cmd;
      broadcast_schedule_cmd;
      scatter_schedule_cmd;
      resilience_cmd;
      robust_cmd;
      soak_cmd;
      sessions_cmd;
      incidents_cmd;
      profile_cmd;
      prefix_cmd;
      gadget_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
