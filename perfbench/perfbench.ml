(* The repository benchmark.

     perfbench.exe --workload sessions|soak|plan --seed N --seconds S --trace 0|1
                   [--corpus C] [--smoke]

   Builds one workload's inputs (a corpus of units drawn from [--corpus],
   run in an order drawn from [--seed]), times the program's public entry
   points from outside, checks every output, and prints a JSON result as
   the last line of standard output. README.md lists every metric.

   A run has up to two passes over the same inputs:
   - the untraced pass gives the end-to-end metrics ([--trace 0] stops
     after it);
   - with [--trace 1] a traced pass follows. It records the program's own
     spans plus [bench.*] spans around every call this file makes into the
     library, and gives the per-layer metrics together with the layer
     kernels (Rat, Basis) timed at the workload's median LP size.

   Every time is calibrated against a kernel this file owns: the kernel
   runs just before and just after every timed call, and inside long calls
   whenever the program reads its clock. Each stretch of program time is
   divided by the median kernel time around it and multiplied by [k_ref],
   the kernel's time on the reference machine. The raw times stay visible
   under [machine.*]. *)

let now = Unix.gettimeofday

(* A span recorded by the benchmark around its own work or a library call. *)
let span name f = Trace.with_span ~cat:"bench" name f

(* Words allocated so far by this domain. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Quantile by linear interpolation between order statistics (the
   "inclusive" method of Python's statistics.quantiles). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* [tail q xs] is the [q]-quantile when at least ten samples lie beyond
   it, else 0 (too few samples to say anything about that tail). *)
let tail q xs =
  let v = quantile q xs in
  if List.length (List.filter (fun x -> x > v) xs) >= 10 then v else 0.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Calibration *)

(* The kernel's median time on the reference machine (2-vCPU x86-64 VM,
   OCaml 5.1.1), seconds. Calibrated times read as reference seconds. *)
let k_ref = 9e-4

let kernel_sink = ref 0.0

(* Hashing, list allocation and a polymorphic-compare sort of a float
   array: the mix of pointer chasing, short-lived allocation and float
   work the planner itself does, but none of the library's code, so no
   change to the library can speed it up. It starts from an empty minor
   heap, so it never collects the program's garbage. *)
let kernel () =
  let h = Hashtbl.create 64 in
  for i = 0 to 2500 do
    let k = i land 255 in
    Hashtbl.replace h k (float_of_int i :: Option.value (Hashtbl.find_opt h k) ~default:[])
  done;
  let a = Array.init 2048 (fun i -> float_of_int ((i * 7919) land 2047)) in
  Array.sort compare a;
  kernel_sink := !kernel_sink +. a.(5) +. float_of_int (Hashtbl.length h)

(* A stretch of program time between two kernel runs: start, seconds. *)
type seg = float * float

(* What one pass measured. Kernel runs and segments are kept in order of
   time (most recent first) and calibrated once the pass is over. *)
type pass = {
  mutable kernels : (float * float) list;  (** (time, seconds) of every kernel run *)
  mutable segs : seg list;  (** every segment of program time *)
  mutable alloc : float;  (** words allocated inside program calls *)
}

let new_pass () = { kernels = []; segs = []; alloc = 0.0 }
let kernel_times p = List.map snd p.kernels

(* Runs the kernel once and records it in [p]. *)
let calibrate p =
  span "bench.calib" @@ fun () ->
  Gc.minor ();
  let t0 = now () in
  kernel ();
  p.kernels <- (t0, now () -. t0) :: p.kernels

(* Kernel runs further than this from a segment do not calibrate it. *)
let window = 0.2

(* [calibrator p] maps a segment of [p] to calibrated seconds: its raw
   time divided by the median of the kernel runs within [window] seconds
   of it, always including the run just before and the run just after it,
   and multiplied by [k_ref]. *)
let calibrator p =
  let ks = Array.of_list (List.rev p.kernels) in
  let n = Array.length ks in
  (* first index whose time is >= t *)
  let search t =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst ks.(mid) < t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  fun ((t0, raw) : seg) ->
    let i = max 0 (search (t0 -. window) - 1) in
    let j = min n (search (t0 +. raw +. window) + 1) in
    let near = List.init (j - i) (fun k -> snd ks.(i + k)) in
    raw *. k_ref /. median near

let raw_of segs = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 segs
let cal_of cal segs = List.fold_left (fun acc sg -> acc +. cal sg) 0.0 segs

(* A meter cuts the time of one program call into segments, each closed by
   a kernel run. The program sees [clock m], a wall clock that stops while
   the kernel runs; a read of it closes the current segment once [min_gap]
   has passed since the last one, so long calls are calibrated locally. *)
type meter = {
  m_pass : pass;
  mutable paused : float;  (** kernel seconds, hidden from the program's clock *)
  mutable paused_words : float;  (** words the kernel allocated inside the call *)
  mutable seg_start : float;
  mutable m_segs : seg list;  (** this call's segments *)
}

let min_gap = 0.02

let run_kernel m =
  let w0 = words () in
  let t0 = now () in
  calibrate m.m_pass;
  m.paused <- m.paused +. (now () -. t0);
  m.paused_words <- m.paused_words +. (words () -. w0)

(* Closes the current segment with a kernel run, opens the next, and
   returns the closed one. *)
let tick m =
  let sg = (m.seg_start, now () -. m.seg_start) in
  run_kernel m;
  m.m_segs <- sg :: m.m_segs;
  m.m_pass.segs <- sg :: m.m_pass.segs;
  m.seg_start <- now ();
  sg

let clock m () =
  if now () -. m.seg_start >= min_gap then ignore (tick m);
  now () -. m.paused

(* Opens a meter on [p] and runs the first kernel. With [collect] (the
   default) the heap is collected first, so the call starts from the same
   state whatever ran before it. *)
let open_meter ?(collect = true) p =
  let m = { m_pass = p; paused = 0.0; paused_words = 0.0; seg_start = 0.0; m_segs = [] } in
  if collect then span "bench.gc" Gc.compact;
  run_kernel m;
  m.paused_words <- 0.0;
  m.seg_start <- now ();
  m

(* Closes the last segment and charges the call's allocation to the pass.
   [w0] is the word count when the call started. *)
let close_meter m ~w0 =
  ignore (tick m);
  m.m_pass.alloc <- m.m_pass.alloc +. (words () -. w0 -. m.paused_words)

(* [timed p name f] runs [f clock] in a [name] span under a meter. Returns
   the value and the call's segments. *)
let timed ?collect p name f =
  let m = open_meter ?collect p in
  let w0 = words () in
  let v = span name (fun () -> f (clock m)) in
  close_meter m ~w0;
  (v, m.m_segs)

(* ------------------------------------------------------------------ *)
(* What a workload's pass returns *)

type outcome = {
  ops : seg list list;  (** the segments of each op *)
  failures : string list;  (** failed output checks, one line each *)
  failed_ops : int;  (** ops with at least one failed check *)
  served_ok : int;  (** ops the service completed (admitted, recovered, planned) *)
  quality : float;  (** quality_frac *)
  layer : (string * float) list;  (** per-layer values read from reports *)
  fingerprint : string list;  (** deterministic outputs, compared across passes *)
}

let check_schedules what scheds =
  List.concat
    (List.mapi
       (fun k s ->
         match span "bench.schedule_check" (fun () -> Schedule.check s) with
         | Ok () -> []
         | Error e -> [ Printf.sprintf "%s schedule %d fails Schedule.check: %s" what k e ])
       scheds)

(* A schedule replayed fault-free must deliver the throughput it claims. *)
let check_replay what (s : Schedule.t) =
  match
    span "bench.replay" (fun () ->
        Event_sim.run s ~periods:(Schedule.init_periods s + 5))
  with
  | Error e -> [ Printf.sprintf "%s: replay failed: %s" what e ]
  | Ok st ->
    let want = Rat.to_float s.Schedule.throughput in
    let got = st.Event_sim.measured_throughput in
    if Float.abs (got -. want) <= 1e-6 *. want then []
    else [ Printf.sprintf "%s: replay measured %.9g, schedule claims %.9g" what got want ]

let mcph_schedule (p : Platform.t) =
  match Mcph.run p with
  | None -> failwith "MCPH found no tree on a generated platform"
  | Some r -> Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])

(* ------------------------------------------------------------------ *)
(* sessions: the online session engine under a link burst *)

type stream = { st_p : Platform.t; st_sessions : Session.t list; st_faults : Fault.scenario }

let sessions_horizon = Rat.of_int 300

(* Offered sessions per stream. Streams are cut to this length so that a
   run attempts the same number of ops whatever the seed; a draw with fewer
   sessions is redrawn from the same generator. *)
let stream_len = 24

let build_stream ~corpus i =
  let p = Tiers.generate (Random.State.make [| corpus; i; 11 |]) Tiers.small_params ~n_targets:8 in
  let wrng = Random.State.make [| corpus; i; 12 |] in
  let rec draw () =
    let w = Workload.generate wrng p Workload.default_params ~horizon:sessions_horizon in
    if List.length w >= stream_len then List.filteri (fun k _ -> k < stream_len) w else draw ()
  in
  let sessions = draw () in
  let faults =
    Fault.random_burst (Random.State.make [| corpus; i; 13 |]) p ~k:4 ~window:Rat.one
      ~at:(Rat.of_int 150)
  in
  { st_p = p; st_sessions = sessions; st_faults = faults }

(* Index of the epoch that handles an arrival at [a]: the first [i >= 1]
   with [i * epoch >= a]. *)
let arrival_epoch ~epoch a =
  let at k = Rat.mul (Rat.of_int k) epoch in
  let i = ref (max 1 (int_of_float (Float.ceil (Rat.to_float (Rat.div a epoch))))) in
  while Rat.compare (at !i) a < 0 do incr i done;
  while !i > 1 && Rat.compare (at (!i - 1)) a >= 0 do decr i done;
  !i

(* The clock handed to [Horizon.run]: the meter's clock, except that the
   planner reads it exactly twice per epoch, at the start and at the end,
   and around an epoch that admits arrivals ([op_epoch i]) both reads close
   a segment, so that epoch is one segment of its own. Returns the clock,
   the number of reads, and the segment of each such epoch by index. *)
let epoch_clock m ~op_epoch =
  let reads = ref 0 in
  let epochs = Hashtbl.create 32 in
  let read () =
    let i = (!reads / 2) + 1 and ending = !reads mod 2 = 1 in
    incr reads;
    if not (op_epoch i) then clock m ()
    else begin
      let sg = tick m in
      if ending then Hashtbl.replace epochs i sg;
      now () -. m.paused
    end
  in
  (read, reads, epochs)

let sessions_config = { Horizon.default_config with Horizon.jobs = 1 }

let run_sessions p streams =
  let ops = ref [] and failures = ref [] and failed_ops = ref 0 and served = ref 0 in
  let admitted = ref 0.0 and offered = ref 0.0 in
  let replans = ref 0 and skipped = ref 0 and preempted = ref 0 and rejected = ref 0 in
  let digests = ref [] in
  List.iteri
    (fun si st ->
      let epoch = sessions_config.Horizon.epoch in
      let arrival_epochs =
        List.map (fun (s : Session.t) -> arrival_epoch ~epoch s.Session.arrival) st.st_sessions
      in
      let m = open_meter p in
      let read, reads, epochs = epoch_clock m ~op_epoch:(fun i -> List.mem i arrival_epochs) in
      let w0 = words () in
      let r =
        span "bench.horizon_run" (fun () ->
            Horizon.run ~now:read ~config:sessions_config ~faults:st.st_faults st.st_p
              st.st_sessions ~horizon:sessions_horizon)
      in
      close_meter m ~w0;
      let what = Printf.sprintf "stream %d" si in
      let n = List.length st.st_sessions in
      match r with
      | Error e ->
        failures := (what ^ ": Horizon.run failed: " ^ e) :: !failures;
        failed_ops := !failed_ops + n
      | Ok rep ->
        let errs =
          check_schedules what (List.map (fun (_, _, s) -> s) rep.Horizon.hz_schedules)
          @ (if Rat.(rep.Horizon.hz_max_port_occupation <= Rat.one) then []
             else [ what ^ ": a port is oversubscribed" ])
          @
          if !reads = 2 * List.length rep.Horizon.hz_epochs then []
          else [ what ^ ": the planner did not read the clock twice per epoch" ]
        in
        failures := errs @ !failures;
        if errs <> [] then failed_ops := !failed_ops + n;
        digests := Horizon.digest rep :: !digests;
        replans := !replans + rep.Horizon.hz_replans;
        skipped := !skipped + rep.Horizon.hz_replans_skipped;
        preempted := !preempted + rep.Horizon.hz_preempted;
        List.iter
          (fun i -> Option.iter (fun sg -> ops := [ sg ] :: !ops) (Hashtbl.find_opt epochs i))
          arrival_epochs;
        List.iter
          (fun (sr : Horizon.session_record) ->
            offered := !offered +. Rat.to_float sr.Horizon.sr_session.Session.demand;
            admitted := !admitted +. Rat.to_float sr.Horizon.sr_admitted_rate;
            match sr.Horizon.sr_outcome with
            | Horizon.Rejected -> incr rejected
            | Horizon.Preempted -> ()
            | Horizon.Completed | Horizon.Active -> incr served)
          rep.Horizon.hz_sessions)
    streams;
  let attempted = List.length streams * stream_len in
  {
    ops = List.rev !ops;
    failures = List.rev !failures;
    failed_ops = !failed_ops;
    served_ok = !served;
    quality = ratio !admitted !offered;
    layer =
      [
        ("session.replans", float_of_int !replans);
        ("session.skip_ratio", ratio (float_of_int !skipped) (float_of_int (!replans + !skipped)));
        ("session.preemptions", float_of_int !preempted);
        ( "session.reject_frac",
          ratio (float_of_int (!rejected + !preempted)) (float_of_int attempted) );
        ("served_frac", ratio !admitted !offered);
      ];
    fingerprint = List.rev !digests;
  }

(* Lp_cache hits and misses of the current pass, across [reset_cache]. *)
let cache_hits = ref 0
let cache_misses = ref 0

let cache_stats () =
  let s = Lp_cache.stats () in
  { Lp_cache.hits = !cache_hits + s.Lp_cache.hits; misses = !cache_misses + s.Lp_cache.misses }

let reset_cache () =
  let s = cache_stats () in
  Lp_cache.reset ();
  cache_hits := s.Lp_cache.hits;
  cache_misses := s.Lp_cache.misses

(* ------------------------------------------------------------------ *)
(* soak: the damped recovery controller over fail/repair timelines *)

type soak_case = {
  sc_p : Platform.t;
  sc_sched : Schedule.t;
  sc_timelines : (string * Fault.scenario) list;
}

let soak_horizon = Rat.of_int 600

let build_soak ~corpus i =
  let p = Tiers.generate (Random.State.make [| corpus; i; 21 |]) Tiers.small_params ~n_targets:8 in
  let renewal =
    Fault.renewal_link_faults (Random.State.make [| corpus; i; 22 |]) p ~mtbf:1500. ~mttr:30.
      ~horizon:soak_horizon
  in
  let flapping =
    Fault.flapping_links (Random.State.make [| corpus; i; 23 |]) p ~links:3 ~flaps:6 ~mean_up:40.
      ~mean_down:5. ~at:Rat.zero
  in
  {
    sc_p = p;
    sc_sched = mcph_schedule p;
    sc_timelines = [ ("renewal", renewal); ("flapping", flapping) ];
  }

let run_soak p cases =
  let ops = ref [] and failures = ref [] and failed_ops = ref 0 and served = ref 0 in
  let avail = ref [] and delivered = ref 0.0 and nominal = ref 0.0 in
  let episodes = ref 0 and full = ref 0 and hits = ref 0 and exhausted = ref 0 in
  let prints = ref [] in
  List.iteri
    (fun ci c ->
      (* Lp_cache keys include the platform, so no hit crosses cases.
         Emptying it per case keeps each case's memory its own, and the
         peak heap independent of the order the seed draws. *)
      reset_cache ();
      List.iter
        (fun (kind, scenario) ->
          let what = Printf.sprintf "case %d %s" ci kind in
          let r, segs =
            timed p "bench.soak_run" (fun now ->
                Soak.run ~now ~config:(Soak.default_config c.sc_p) c.sc_p c.sc_sched scenario
                  ~horizon:soak_horizon)
          in
          ops := segs :: !ops;
          match r with
          | Error e ->
            failures := (what ^ ": Soak.run failed: " ^ e) :: !failures;
            incr failed_ops
          | Ok rep ->
            let a = rep.Soak.sk_availability in
            let errs =
              check_schedules what rep.Soak.sk_schedules
              @ if a >= 0.0 && a <= 1.0 then [] else [ Printf.sprintf "%s: availability %g" what a ]
            in
            failures := errs @ !failures;
            if errs <> [] then incr failed_ops;
            let lost =
              List.exists
                (function
                  | Soak.Episode { outcome = "fallback"; _ } | Soak.Stale _ -> true | _ -> false)
                rep.Soak.sk_log
            in
            if not lost then incr served;
            avail := a :: !avail;
            delivered := !delivered +. rep.Soak.sk_delivered_integral;
            nominal := !nominal +. rep.Soak.sk_nominal_integral;
            let is_episode = function Soak.Episode _ -> true | _ -> false in
            episodes := !episodes + List.length (List.filter is_episode rep.Soak.sk_log);
            full := !full + rep.Soak.sk_full_replans;
            hits := !hits + rep.Soak.sk_cache_hits;
            exhausted := !exhausted + rep.Soak.sk_token_exhaustions;
            prints :=
              Printf.sprintf "%s %h %h %d %d" what a rep.Soak.sk_delivered_integral
                rep.Soak.sk_full_replans rep.Soak.sk_patches
              :: !prints)
        c.sc_timelines)
    cases;
  {
    ops = List.rev !ops;
    failures = List.rev !failures;
    failed_ops = !failed_ops;
    served_ok = !served;
    quality = ratio !delivered !nominal;
    layer =
      [
        ("soak.episodes", float_of_int !episodes);
        ("soak.full_replans", float_of_int !full);
        ("soak.cache_hit_ratio", ratio (float_of_int !hits) (float_of_int !episodes));
        ("soak.token_exhaustions", float_of_int !exhausted);
        ("availability", mean !avail);
        ("delivered_frac", ratio !delivered !nominal);
      ];
    fingerprint = List.rev !prints;
  }

(* ------------------------------------------------------------------ *)
(* plan: the paper's offline problem at low, mid and full target density *)

(* Targets drawn among the 17 LAN hosts of a Tiers-small platform. *)
let densities = [| 4; 10; 17 |]

let build_plan ~corpus i =
  let n = Array.length densities in
  let d = densities.(((i mod n) + n) mod n) in
  Tiers.generate (Random.State.make [| corpus; i; 31 |]) Tiers.small_params ~n_targets:d

(* run_all entry name -> per-layer metric. *)
let heuristic_metrics =
  [
    ("scatter", "heuristic.scatter_s");
    ("lower bound", "heuristic.lb_s");
    ("broadcast", "heuristic.broadcast_s");
    ("Augm. MC", "heuristic.augm_s");
    ("Red. BC", "heuristic.redbc_s");
    ("Multisource MC", "heuristic.multisource_s");
  ]

(* Multicast-LB's float throughput is exact only up to an absolute slack:
   the cut loop accepts a target whose max-flow sits up to 3e-6 below rho,
   and every row's right-hand side is relaxed by at most 1e-6 (see
   Formulations.solve_max). The chain LB <= heuristic and UB <= |T| * LB is
   checked in throughput terms, allowing exactly that slack. *)
let lb_slack = 4e-6

let bound_errors what (p : Platform.t) (rep : Heuristics.report) =
  let thr name = 1.0 /. (Heuristics.entry rep name).Heuristics.period in
  let lb = thr "lower bound" and ub = thr "scatter" in
  let n = float_of_int (List.length p.Platform.targets) in
  (if lb > 0.0 && Float.is_finite lb then [] else [ Printf.sprintf "%s: no finite LB" what ])
  @ List.filter_map
      (fun (e : Heuristics.entry) ->
        let t = 1.0 /. e.Heuristics.period in
        if e.Heuristics.name = "lower bound" || t <= lb +. lb_slack then None
        else
          Some
            (Printf.sprintf "%s: %s throughput %.9g above the LB's %.9g" what e.Heuristics.name t
               lb))
      rep.Heuristics.entries
  @
  if n *. ub >= lb -. lb_slack then []
  else [ Printf.sprintf "%s: |T| * UB throughput %.9g below the LB's %.9g" what (n *. ub) lb ]

let run_plan p instances =
  let ops = ref [] and failures = ref [] and failed_ops = ref 0 and served = ref 0 in
  let ratios = ref [] and method_s = Hashtbl.create 8 and heuristic_failures = ref 0 in
  let prints = ref [] in
  List.iteri
    (fun ii (pl : Platform.t) ->
      let what = Printf.sprintf "instance %d (%d targets)" ii (List.length pl.Platform.targets) in
      let (rep, sched), segs =
        timed p "bench.plan_instance" (fun now ->
            let rep =
              span "bench.run_all" (fun () ->
                  Heuristics.run_all ~now ~max_tries_per_round:3 pl)
            in
            let sched = span "bench.mcph" (fun () -> mcph_schedule pl) in
            (rep, sched))
      in
      ops := segs :: !ops;
      List.iter
        (fun (e : Heuristics.entry) ->
          if not (Float.is_finite e.Heuristics.period) then incr heuristic_failures;
          match List.assoc_opt e.Heuristics.name heuristic_metrics with
          | Some m ->
            let prev = Option.value (Hashtbl.find_opt method_s m) ~default:0.0 in
            Hashtbl.replace method_s m (prev +. e.Heuristics.wall_time)
          | None -> ())
        rep.Heuristics.entries;
      let errs =
        bound_errors what pl rep @ check_schedules what [ sched ] @ check_replay what sched
      in
      failures := errs @ !failures;
      if errs = [] then incr served else incr failed_ops;
      let lb = (Heuristics.entry rep "lower bound").Heuristics.period in
      let best =
        List.fold_left
          (fun acc (e : Heuristics.entry) ->
            if e.Heuristics.name = "lower bound" then acc else Float.min acc e.Heuristics.period)
          infinity rep.Heuristics.entries
      in
      ratios := (best /. lb) :: !ratios;
      prints :=
        String.concat " "
          (what :: List.map (fun (e : Heuristics.entry) -> Printf.sprintf "%h" e.Heuristics.period)
                     rep.Heuristics.entries)
        :: !prints)
    instances;
  {
    ops = List.rev !ops;
    failures = List.rev !failures;
    failed_ops = !failed_ops;
    served_ok = !served;
    quality = mean (List.map (fun r -> 1.0 /. r) !ratios);
    layer =
      ("period_ratio", mean !ratios)
      :: ("heuristic.failures", float_of_int !heuristic_failures)
      :: List.map
           (fun (_, m) -> (m, Option.value (Hashtbl.find_opt method_s m) ~default:0.0))
           heuristic_metrics;
    fingerprint = List.rev !prints;
  }

(* ------------------------------------------------------------------ *)
(* Layer kernels, timed from outside *)

(* Repeats [f] [reps] times under a meter of its own; returns calibrated
   seconds and allocated words per call. *)
let per_call ~reps f =
  let p = new_pass () in
  let (), segs =
    timed p "bench.kernel" (fun _ ->
        for _ = 1 to reps do
          f ()
        done)
  in
  let w0 = words () in
  f ();
  let w = words () -. w0 in
  (cal_of (calibrator p) segs /. float_of_int reps, w)

(* One op = one add, one mul and one compare. Small operands come from
   the session engine's 1/960 rate lattice and the fault generators'
   1/1000 time grid; big ones span several Nat digits. *)
let rat_kernel ~big ~reps =
  let n = 64 in
  let xs =
    Array.init n (fun i ->
        if big then
          Rat.make
            (Zint.of_string (Printf.sprintf "%d123456789012345678901" (i + 1)))
            (Zint.of_string (Printf.sprintf "%d98765432109876543" (i + 3)))
        else Rat.of_ints (((i * 37) mod 960) + 1) 960)
  in
  let ys = Array.init n (fun i -> Rat.of_ints (((i * 7919) mod 100_000) + 1) 1000) in
  let hits = ref 0 and k = ref 0 in
  let op () =
    let i = !k land (n - 1) in
    incr k;
    let x = xs.(i) and y = ys.((i * 5) land (n - 1)) in
    if Rat.compare (Rat.add x y) (Rat.mul x y) > 0 then incr hits
  in
  per_call ~reps op

(* A synthetic m x m basis shaped like the LP bases: a dominant diagonal
   plus two off-diagonal entries per column. *)
let basis_kernel ~m ~reps =
  let cols =
    Array.init m (fun j ->
        let rows = Array.of_list (List.sort_uniq compare [ j; (j + 1) mod m; (j + 7) mod m ]) in
        let value r = if r = j then 4.0 else if r = (j + 1) mod m then -1.0 else 0.5 in
        (rows, Array.map value rows))
  in
  match Basis.create ~cols ~header:(Array.init m Fun.id) with
  | Error e -> failwith ("synthetic basis: " ^ e)
  | Ok b ->
    let rhs = Array.init m (fun i -> float_of_int ((i mod 7) + 1)) in
    let ftran, fw = per_call ~reps (fun () -> ignore (Basis.ftran b rhs)) in
    let btran, bw = per_call ~reps (fun () -> ignore (Basis.btran b rhs)) in
    let refactor, _ =
      per_call ~reps:(max 1 (reps / 8)) (fun () ->
          match Basis.refactor b with Ok () -> () | Error e -> failwith e)
    in
    (ftran, btran, refactor, fw +. bw)

(* ------------------------------------------------------------------ *)
(* Traced-pass analysis *)

let durations events name =
  List.filter_map
    (fun (e : Trace.event) -> if e.Trace.ev_name = name then e.Trace.ev_dur else None)
    events

let int_args events name arg =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.ev_name <> name then None
      else
        match List.assoc_opt arg e.Trace.ev_args with
        | Some (Trace.Int v) -> Some (float_of_int v)
        | _ -> None)
    events

let self_time (prof : Trace_stats.profile) name =
  match List.find_opt (fun s -> s.Trace_stats.ns_name = name) prof.Trace_stats.p_names with
  | Some s -> s.Trace_stats.ns_self
  | None -> 0.0

(* Per span name: count, self seconds, p50 and p90 of the inclusive
   duration, busiest first. *)
let span_table (prof : Trace_stats.profile) events ~fac =
  Printf.printf "  %-34s %8s %10s %10s %10s\n" "span" "count" "self s" "p50 ms" "p90 ms";
  List.iter
    (fun (s : Trace_stats.name_stat) ->
      let ds = durations events s.Trace_stats.ns_name in
      Printf.printf "  %-34s %8d %10.4f %10.4f %10.4f\n" s.Trace_stats.ns_name
        s.Trace_stats.ns_count (fac *. s.Trace_stats.ns_self)
        (1e3 *. fac *. median ds) (1e3 *. fac *. tail 0.9 ds))
    prof.Trace_stats.p_names

let counter_delta d name =
  match Metrics.find d name with
  | Some (Metrics.Counter v) -> float_of_int v
  | Some (Metrics.Histogram h) -> h.Metrics.h_sum
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Running a workload *)

type args = {
  workload : string;
  seed : int;
  corpus : int;
  seconds : int;
  trace : bool;
  smoke : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 0 and corpus = ref 0 and seconds = ref 10 in
  let trace = ref 0 in
  let smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "sessions|soak|plan");
      ("--seed", Arg.Set_int seed, "N draws the order in which the units run");
      ("--corpus", Arg.Set_int corpus, "C draws the units themselves (default 0)");
      ("--seconds", Arg.Set_int seconds, "S size a pass to about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 add the traced pass and the per-layer metrics");
      ("--smoke", Arg.Set smoke, " one unit per pass, for the benchmark's own test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "sessions"; "soak"; "plan" ]) then begin
    prerr_endline "perfbench: --workload must be sessions, soak or plan";
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seconds >= 1 and --trace 0 or 1";
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    corpus = !corpus;
    seconds = !seconds;
    trace = !trace = 1;
    smoke = !smoke;
  }

(* Units (streams, soak cases, instances) per pass for [seconds] seconds
   of untraced work on the reference machine. Fixed by [seconds] alone, so
   every run of the same size does the same work. *)
let units args ~per_second ~multiple =
  if args.smoke then multiple
  else
    let u = float_of_int args.seconds *. per_second /. float_of_int multiple in
    multiple * max 1 (int_of_float (Float.round u))

(* Each workload, packaged for [main]. *)
type bench =
  | Bench : {
      units : int;
      build : int -> 'a;  (** index -> one unit's inputs *)
      run : pass -> 'a list -> outcome;
    }
      -> bench

(* Set-up repeats until it has run [setup_min_reps] times and for
   [setup_min_s] seconds, or [setup_max_reps] times. *)
let setup_min_reps = 9
let setup_min_s = 0.5
let setup_max_reps = 200
let trace_capacity = 1 lsl 20

let fresh_state () =
  Lp_cache.reset ();
  cache_hits := 0;
  cache_misses := 0;
  Warm_registry.clear ();
  Gc.compact ()

type pass_result = {
  pr_pass : pass;
  pr_out : outcome;
  pr_metrics : Metrics.snapshot;  (** counter deltas over the pass *)
  pr_cache : Lp_cache.stats;
  pr_elapsed : float;  (** raw seconds, the whole pass *)
}

let run_pass run inputs =
  fresh_state ();
  let before = Metrics.snapshot () in
  let p = new_pass () in
  let t0 = now () in
  let out = run p inputs in
  let elapsed = now () -. t0 in
  {
    pr_pass = p;
    pr_out = out;
    pr_metrics = Metrics.delta ~before (Metrics.snapshot ());
    pr_cache = cache_stats ();
    pr_elapsed = elapsed;
  }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "non-finite metric"

let main () =
  let args = parse_args () in
  Unix.putenv "MCAST_JOBS" "1";
  let seed = args.seed and corpus = args.corpus in
  let (Bench b) =
    match args.workload with
    | "sessions" ->
      let units = units args ~per_second:0.75 ~multiple:1 in
      Bench { units; build = build_stream ~corpus; run = run_sessions }
    | "soak" ->
      let units = units args ~per_second:1.5 ~multiple:1 in
      Bench { units; build = build_soak ~corpus; run = run_soak }
    | _ ->
      (* whole low/mid/full triples *)
      let units = units args ~per_second:0.6 ~multiple:3 in
      Bench { units; build = build_plan ~corpus; run = run_plan }
  in
  (* The seed draws the order in which the corpus' units run. *)
  let order =
    let rng = Random.State.make [| seed; 7 |] in
    List.map snd
      (List.sort compare (List.init b.units (fun i -> (Random.State.bits rng, i))))
  in
  (* Set-up: build every input, several times; the median is setup_s. *)
  let sp = new_pass () in
  let rec setups n reps =
    let inputs, segs =
      timed ~collect:false sp "bench.setup" (fun _ -> List.map b.build order)
    in
    let reps = segs :: reps in
    if n + 1 >= setup_max_reps || (n + 1 >= setup_min_reps && raw_of sp.segs >= setup_min_s)
    then (inputs, reps)
    else setups (n + 1) reps
  in
  let inputs, setup_reps = setups 0 [] in
  let setup_s = median (List.map (cal_of (calibrator sp)) setup_reps) in
  (* Warm-up on a unit outside the corpus. *)
  ignore (b.run (new_pass ()) [ b.build (-1) ]);
  let untraced = run_pass b.run inputs in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  let traced =
    if not args.trace then None
    else begin
      Trace.enable ~capacity:trace_capacity ();
      let r = run_pass b.run inputs in
      let events = Trace.events () in
      let dropped = Trace.dropped () in
      Trace.disable ();
      Some (r, events, dropped)
    end
  in
  let u = untraced.pr_out in
  let wall r = cal_of (calibrator r.pr_pass) r.pr_pass.segs in
  let describe what r =
    let ks = kernel_times r.pr_pass in
    Printf.eprintf "%s pass: raw %.3f s, calibrated %.3f s, kernel median %.4f ms (%d runs)\n" what
      (raw_of r.pr_pass.segs) (wall r) (1e3 *. median ks) (List.length ks)
  in
  describe "untraced" untraced;
  Option.iter (fun (t, _, _) -> describe "traced" t) traced;
  let attempted = List.length u.ops in
  let mismatch =
    match traced with
    | Some (t, _, _) when t.pr_out.fingerprint <> u.fingerprint ->
      [ "the traced pass produced different outputs than the untraced one" ]
    | _ -> []
  in
  let failures =
    u.failures @ mismatch @ match traced with Some (t, _, _) -> t.pr_out.failures | None -> []
  in
  let failed = u.failed_ops + if mismatch <> [] then attempted - u.failed_ops else 0 in
  List.iter (fun f -> Printf.eprintf "check failed: %s\n" f) failures;
  let up = untraced.pr_pass in
  let cal_ops = List.map (cal_of (calibrator up)) u.ops and raw_ops = List.map raw_of u.ops in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("wall_s", wall untraced, "s");
      ("op_p50_ms", 1e3 *. median cal_ops, "ms");
      ("ops", float_of_int attempted, "count");
      ("ok_frac", ratio (float_of_int u.served_ok) (float_of_int attempted), "ratio");
      ("quality_frac", u.quality, "ratio");
      ("alloc_mwords", up.alloc /. 1e6, "Mwords");
      ("peak_heap_mb", heap_mb, "MB");
    ]
  in
  let metrics =
    match traced with
    | None -> e2e
    | Some (t, events, dropped) ->
      let tp = t.pr_pass in
      (* Per-layer times are calibrated by the pass' median kernel run. *)
      let fac = k_ref /. median (kernel_times tp) in
      let prof = Trace_stats.of_events ~dropped events in
      let self name = fac *. self_time prof name in
      let ms_q q name = 1e3 *. fac *. q (durations events name) in
      let d = untraced.pr_metrics in
      let c = counter_delta d in
      let rows_p50 = median (int_args events "lp.solve" "rows") in
      let pivots = List.fold_left ( +. ) 0.0 (int_args events "lp.solve" "pivots") in
      let solves_float = c "lp.solves.float" in
      let m = max 2 (int_of_float (Float.round rows_p50)) in
      let reps = if args.smoke then 50 else 2000 in
      let rat_small_s, rat_small_w = rat_kernel ~big:false ~reps:(reps * 10) in
      let rat_big_s, _ = rat_kernel ~big:true ~reps in
      let ftran, btran, refactor, bwords = basis_kernel ~m ~reps in
      let layer name = Option.value (List.assoc_opt name u.layer) ~default:0.0 in
      let untraced_fac = k_ref /. median (kernel_times up) in
      let patched = c "repair.patched" and fell_back = c "repair.fallback" in
      let cache = untraced.pr_cache in
      [
        ("op_p90_ms", 1e3 *. tail 0.9 cal_ops, "ms");
        ("served_frac", layer "served_frac", "ratio");
        ("availability", layer "availability", "ratio");
        ("delivered_frac", layer "delivered_frac", "ratio");
        ("period_ratio", layer "period_ratio", "ratio");
        ("session.replans", layer "session.replans", "count");
        ("session.skip_ratio", layer "session.skip_ratio", "ratio");
        ("session.preemptions", layer "session.preemptions", "count");
        ("session.reject_frac", layer "session.reject_frac", "ratio");
        ("session.plan_p50_ms", ms_q median "session.plan", "ms");
        ("session.plan_p90_ms", ms_q (tail 0.9) "session.plan", "ms");
        ("session.epoch_self_s", self "session.epoch", "s");
        ("lp.solves", solves_float +. c "lp.solves.exact", "count");
        ("lp.pivots", c "lp.pivots.float" +. c "lp.pivots.exact", "count");
        ("lp.fallbacks", c "solver_chain.fallbacks" +. c "solver_chain.revised_fallbacks", "count");
        ("lp.solve_self_s", self "lp.solve", "s");
        ("lp.us_per_pivot", 1e6 *. ratio (self "lp.solve") pivots, "us");
        ("lp.rows_p50", rows_p50, "rows");
        ("lp.warm_hit_ratio", ratio (c "lp.warm.hits") solves_float, "ratio");
        ("lp.basis_ftran_us", 1e6 *. ftran, "us");
        ("lp.basis_btran_us", 1e6 *. btran, "us");
        ("lp.basis_refactor_us", 1e6 *. refactor, "us");
        ("lp.basis_words", bwords, "words");
        ("formulations.lb_self_s", self "formulations.multicast_lb", "s");
        ("formulations.cut_rounds", c "formulations.lb_cut_rounds", "count");
        ("mcph.runs", c "mcph.runs", "count");
        ("mcph.self_s", self "mcph.run", "s");
      ]
      @ List.map (fun (_, name) -> (name, untraced_fac *. layer name, "s")) heuristic_metrics
      @ [
          ("heuristic.failures", layer "heuristic.failures", "count");
          ("schedule.check_ms", ms_q median "bench.schedule_check", "ms");
          ("repair.plans", c "repair.plans", "count");
          ("repair.patch_ratio", ratio patched (patched +. fell_back), "ratio");
          ( "lp_cache.hit_ratio",
            ratio (float_of_int cache.Lp_cache.hits)
              (float_of_int (cache.Lp_cache.hits + cache.Lp_cache.misses)),
            "ratio" );
          ("sim.faulty_replays", c "sim.faulty_replays", "count");
          ("sim.replay_faulty_self_s", self "sim.replay_faulty", "s");
          ("sim.replay_faulty_p50_ms", ms_q median "sim.replay_faulty", "ms");
          ("sim.replay_ms", ms_q median "bench.replay", "ms");
          ("recovery.runs", c "recovery.runs", "count");
          ("recovery.run_p50_ms", ms_q median "recovery.run", "ms");
          ("recovery.run_p90_ms", ms_q (tail 0.9) "recovery.run", "ms");
          ( "recovery.deadline_overruns",
            float_of_int
              (List.length
                 (List.filter
                    (fun (e : Trace.event) -> e.Trace.ev_name = "recovery.deadline-exceeded")
                    events)),
            "count" );
          ("soak.episodes", layer "soak.episodes", "count");
          ("soak.full_replans", layer "soak.full_replans", "count");
          ("soak.cache_hit_ratio", layer "soak.cache_hit_ratio", "ratio");
          ("soak.token_exhaustions", layer "soak.token_exhaustions", "count");
          ("rat.small_ns", 1e9 *. rat_small_s, "ns");
          ("rat.small_words", rat_small_w, "words");
          ("rat.big_ns", 1e9 *. rat_big_s, "ns");
          ("pool.tasks", c "pool.tasks", "count");
          ("trace.events", float_of_int (List.length events), "count");
          ("trace.dropped", float_of_int dropped, "count");
          ("trace.coverage", ratio (Trace_stats.total_self prof) t.pr_elapsed, "ratio");
          ("trace.overhead_frac", ratio (wall t) (wall untraced) -. 1.0, "ratio");
          ("machine.calib_ms", 1e3 *. median (kernel_times up), "ms");
          ("machine.wall_raw_s", raw_of up.segs, "s");
          ("machine.op_p50_raw_ms", 1e3 *. median raw_ops, "ms");
        ]
  in
  Option.iter
    (fun (t, events, dropped) ->
      Printf.printf "traced pass, calibrated (p90 0 when fewer than 10 samples lie beyond it):\n";
      span_table (Trace_stats.of_events ~dropped events) events
        ~fac:(k_ref /. median (kernel_times t.pr_pass)))
    traced;
  Printf.printf "workload %s, seed %d, corpus %d: %d ops, %d failed\n" args.workload seed corpus
    attempted failed;
  List.iter (fun (n, v, unit) -> Printf.printf "  %-28s %14.6g %s\n" n v unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) attempted failed body;
  if failures <> [] then exit 1

let () = main ()
