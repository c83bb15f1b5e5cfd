type stats = {
  periods : int;
  messages_delivered : int;
  measured_throughput : float;
  max_latency : float;
}

type loss = {
  l_tree : int;
  l_target : int;
  l_message : int;
}

type fault_stats = {
  f_periods : int;
  f_delivered : int;
  f_losses : loss list;
  f_completed : int;
  f_measured_throughput : float;
}

(* Absolute-time busy interval of one unrolled transfer. *)
type event = {
  e_src : int;
  e_dst : int;
  e_tree : int;
  e_start : Rat.t;
  e_finish : Rat.t;
}

(* Unroll the schedule with the initialization phase: an edge whose tail
   sits at depth d of its tree idles for the first d periods, then repeats
   the periodic pattern — so batch p of messages crosses depth-d edges
   during period p + d, a full period after the tail received it. *)
let unroll (sched : Schedule.t) ~periods =
  let trees = sched.Schedule.trees in
  let depth_of tree v = Out_tree.depth tree.Multicast_tree.tree v in
  let events = ref [] in
  List.iter
    (fun (tr : Schedule.transfer) ->
      let d = depth_of trees.(tr.Schedule.tree) tr.Schedule.src in
      for p = d to periods - 1 do
        let offset = Rat.mul (Rat.of_int p) sched.Schedule.period in
        events :=
          {
            e_src = tr.Schedule.src;
            e_dst = tr.Schedule.dst;
            e_tree = tr.Schedule.tree;
            e_start = Rat.add offset tr.Schedule.start;
            e_finish = Rat.add offset tr.Schedule.finish;
          }
          :: !events
      done)
    sched.Schedule.transfers;
  List.sort
    (fun a b ->
      let c = Rat.compare a.e_start b.e_start in
      if c <> 0 then c else Rat.compare a.e_finish b.e_finish)
    !events

(* floor(q) for a non-negative rational, as an int. *)
let floor_int q =
  let quot, _ = Zint.ediv_rem (Rat.num q) (Rat.den q) in
  Option.value ~default:max_int (Zint.to_int quot)

(* Each tree serves the target set of its own platform view: the full
   multicast set for ordinary trees, one destination for scatter chains. *)
let targets_of (sched : Schedule.t) k =
  sched.Schedule.trees.(k).Multicast_tree.platform.Platform.targets

let replays = Metrics.counter "sim.replays"
let faulty_replays = Metrics.counter "sim.faulty_replays"

(* What one replay pass learns; both entry points read their results off it. *)
type pass = {
  valid : (int * int * int, Rat.t) Hashtbl.t;  (* (tree, node, msg) -> first valid reception *)
  rejected : (int * int * int * int * Rat.t * Rat.t) option;  (* first refused reception *)
  duplicates : (int * int * int) list;  (* valid receptions of a message already held *)
  delivered : int;  (* owed target deliveries that happened *)
  losses : loss list;  (* owed target deliveries that did not *)
  completed : int;  (* owed multicast instances every target received *)
  throughput : float;  (* completions per time unit inside the steady-state window *)
}

(* The one replay pass. The schedule is NOT re-timed: ports keep their
   nominal reservations, so a transfer whose link died makes no progress
   during its slot, and a degraded link accrues progress at rate
   [1/factor] — messages complete later (or never, within the horizon).
   Pass 1 turns cumulative per-(tree, edge) busy time into tentative
   receptions with begin/completion times; pass 2 validates them in
   completion order: a reception only counts if the sender is the tree
   root or itself held a validly-received copy by the moment transmission
   began, so losses cascade down the tree. With no faults this is the
   causality check of [run]. *)
let replay (sched : Schedule.t) events ~faults ~periods =
  let trees = sched.Schedule.trees in
  let g = trees.(0).Multicast_tree.platform.Platform.graph in
  (* Each tree is exempt at its own root (the primary source for multicast
     trees, the commodity origin for scatter chains). *)
  let root_of k = trees.(k).Multicast_tree.platform.Platform.source in
  (* Pass 1: progress arithmetic under faults. *)
  let progress = Hashtbl.create 64 in
  let tentative = ref [] in
  (* (tree, src, dst, msg, t_begin, t_complete) *)
  List.iter
    (fun e ->
      if not (Fault.edge_dead faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start) then begin
        let f = Fault.slowdown faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start in
        let key = (e.e_tree, e.e_src, e.e_dst) in
        let before = Option.value ~default:Rat.zero (Hashtbl.find_opt progress key) in
        let span = Rat.div (Rat.sub e.e_finish e.e_start) f in
        let after = Rat.add before span in
        Hashtbl.replace progress key after;
        (* Messages completing within this interval: the next index to
           complete is floor(before / c) — the count already finished. *)
        let c = Digraph.cost g ~src:e.e_src ~dst:e.e_dst in
        let next_msg = floor_int (Rat.div before c) in
        let rec record msg =
          let completion_progress = Rat.mul (Rat.of_int (msg + 1)) c in
          if Rat.(completion_progress <= after) then begin
            let begin_progress = Rat.mul (Rat.of_int msg) c in
            let t_begin =
              if Rat.(begin_progress <= before) then e.e_start
              else Rat.add e.e_start (Rat.mul f (Rat.sub begin_progress before))
            in
            let t_complete =
              Rat.add e.e_start (Rat.mul f (Rat.sub completion_progress before))
            in
            tentative := (e.e_tree, e.e_src, e.e_dst, msg, t_begin, t_complete) :: !tentative;
            record (msg + 1)
          end
        in
        record next_msg
      end)
    events;
  (* Pass 2: validate receptions in completion order — cascading loss. *)
  let sorted =
    List.sort
      (fun (_, _, _, _, _, a) (_, _, _, _, _, b) -> Rat.compare a b)
      (List.rev !tentative)
  in
  let valid = Hashtbl.create 64 in
  let rejected = ref None and duplicates = ref [] in
  List.iter
    (fun ((k, src, dst, msg, t_begin, t_complete) as r) ->
      let sender_ok =
        src = root_of k
        ||
        match Hashtbl.find_opt valid (k, src, msg) with
        | Some t -> Rat.(t <= t_begin)
        | None -> false
      in
      if sender_ok then begin
        let key = (k, dst, msg) in
        if Hashtbl.mem valid key then duplicates := key :: !duplicates
        else Hashtbl.replace valid key t_complete
      end
      else if Option.is_none !rejected then rejected := Some r)
    sorted;
  (* Account deliveries and losses against the fault-free expectation.
     Batch p of tree k crosses depth-d edges during period p + d, so a
     target at depth d is owed messages 0 .. (periods - d) * m_k - 1
     within the horizon. *)
  let delivered = ref 0 in
  let losses = ref [] in
  let completions = ref [] in
  Array.iteri
    (fun k (tree : Multicast_tree.t) ->
      let m_k = sched.Schedule.per_tree_messages.(k) in
      let targets = targets_of sched k in
      let n_targets = List.length targets in
      (* per-message: how many targets validly received it, and when last *)
      let per_msg = Hashtbl.create 64 in
      List.iter
        (fun t ->
          let d_t =
            if Out_tree.mem tree.Multicast_tree.tree t then
              Out_tree.depth tree.Multicast_tree.tree t
            else periods
          in
          let due = max 0 ((periods - d_t) * m_k) in
          for m = 0 to due - 1 do
            match Hashtbl.find_opt valid (k, t, m) with
            | Some time ->
              incr delivered;
              let cnt, latest =
                Option.value ~default:(0, Rat.zero) (Hashtbl.find_opt per_msg m)
              in
              Hashtbl.replace per_msg m (cnt + 1, Rat.max latest time)
            | None -> losses := { l_tree = k; l_target = t; l_message = m } :: !losses
          done)
        targets;
      Hashtbl.iter
        (fun _ (cnt, latest) -> if cnt = n_targets then completions := latest :: !completions)
        per_msg)
    trees;
  (* Steady-state rate: count completions inside a window of whole periods
     that starts after the pipeline warm-up — each such period completes
     exactly [messages_per_period] multicasts in steady state, so the
     estimate is unbiased. *)
  let warm = Schedule.init_periods sched + 1 in
  let win_start = Rat.mul (Rat.of_int warm) sched.Schedule.period in
  let win_periods = periods - warm - 1 in
  let win_end =
    Rat.add win_start (Rat.mul (Rat.of_int win_periods) sched.Schedule.period)
  in
  let in_window =
    List.length
      (List.filter (fun t -> Rat.(win_start <= t) && Rat.(t < win_end)) !completions)
  in
  {
    valid;
    rejected = !rejected;
    duplicates = List.rev !duplicates;
    delivered = !delivered;
    losses = List.rev !losses;
    completed = List.length !completions;
    throughput =
      (if win_periods > 0 then
         float_of_int in_window /. Rat.to_float (Rat.sub win_end win_start)
       else 0.0);
  }

let run (sched : Schedule.t) ~periods =
  if periods < 1 then Error (Printf.sprintf "need at least one period, got %d" periods)
  else begin
  Metrics.incr replays;
  Trace.with_span ~cat:"sim" "sim.replay"
    ~args:[ ("periods", Trace.Int periods) ]
    ~result:(function
      | Error e -> [ ("error", Trace.Str e) ]
      | Ok s ->
        [
          ("delivered", Trace.Int s.messages_delivered);
          ("throughput", Trace.Float s.measured_throughput);
        ])
  @@ fun () ->
  let trees = sched.Schedule.trees in
  let n = Platform.n_nodes trees.(0).Multicast_tree.platform in
  let events = unroll sched ~periods in
  (* Port exclusivity: a check of its own — overlapping transfers still
     make progress, so the replay pass cannot see them. *)
  let busy_send = Array.make n Rat.zero and busy_recv = Array.make n Rat.zero in
  let exclusivity_ok =
    List.for_all
      (fun e ->
        let ok = Rat.(busy_send.(e.e_src) <= e.e_start) && Rat.(busy_recv.(e.e_dst) <= e.e_start) in
        busy_send.(e.e_src) <- Rat.max busy_send.(e.e_src) e.e_finish;
        busy_recv.(e.e_dst) <- Rat.max busy_recv.(e.e_dst) e.e_finish;
        ok)
      events
  in
  if not exclusivity_ok then Error "one-port violation: overlapping transfers on a port"
  else
    let r = replay sched events ~faults:[] ~periods in
    let fail fmt = Printf.ksprintf Result.error fmt in
    let is_target k v = List.mem v (targets_of sched k) in
    let unspanned k t =
      if Out_tree.mem trees.(k).Multicast_tree.tree t then None else Some (k, t)
    in
    match
      ( r.rejected,
        List.find_map
          (fun k -> List.find_map (unspanned k) (targets_of sched k))
          (List.init (Array.length trees) Fun.id),
        r.losses,
        List.find_opt (fun (k, v, _) -> is_target k v) r.duplicates )
    with
    | Some (k, src, _, msg, t_begin, _), _, _, _ -> (
      match Hashtbl.find_opt r.valid (k, src, msg) with
      | Some t ->
        fail "node %d forwards tree-%d message %d at %s before receiving it at %s" src k msg
          (Rat.to_string t_begin) (Rat.to_string t)
      | None -> fail "node %d forwards tree-%d message %d it never receives" src k msg)
    | None, Some (k, t), _, _ -> fail "tree %d does not span target %d" k t
    | None, None, l :: _, _ ->
      fail "dropped delivery: tree-%d message %d never reaches target %d" l.l_tree l.l_message
        l.l_target
    | None, None, [], Some ((k, t, m) as key) ->
      fail "duplicate delivery: tree-%d message %d reaches target %d %d times" k m t
        (1 + List.length (List.filter (( = ) key) r.duplicates))
    | None, None, [], None ->
      (* Every valid target reception counts, owed or not; an instance of
         tree k is complete when all of k's targets hold it, and its
         latency runs from its nominal emission to its last delivery. *)
      let delivered = ref 0 in
      let complete = Hashtbl.create 64 in
      Hashtbl.iter
        (fun (k, v, msg) time ->
          if is_target k v then begin
            incr delivered;
            let cnt, latest =
              Option.value ~default:(0, Rat.zero) (Hashtbl.find_opt complete (k, msg))
            in
            Hashtbl.replace complete (k, msg) (cnt + 1, Rat.max latest time)
          end)
        r.valid;
      let max_latency =
        Hashtbl.fold
          (fun (k, msg) (cnt, latest) acc ->
            if cnt <> List.length (targets_of sched k) then acc
            else
              (* Message [msg] of tree k is emitted during period msg / m_k. *)
              let m_k = sched.Schedule.per_tree_messages.(k) in
              let emission = Rat.mul (Rat.of_int (msg / max m_k 1)) sched.Schedule.period in
              Float.max acc (Rat.to_float (Rat.sub latest emission)))
          complete 0.0
      in
      let messages_delivered = !delivered in
      Ok { periods; messages_delivered; measured_throughput = r.throughput; max_latency }
  end

let run_with_faults (sched : Schedule.t) ~faults ~periods =
  if periods < 1 then invalid_arg "Event_sim.run_with_faults: need at least one period";
  Metrics.incr faulty_replays;
  Trace.with_span ~cat:"sim" "sim.replay_faulty"
    ~args:[ ("periods", Trace.Int periods) ]
    ~result:(fun s ->
      [
        ("delivered", Trace.Int s.f_delivered);
        ("losses", Trace.Int (List.length s.f_losses));
      ])
  @@ fun () ->
  let r = replay sched (unroll sched ~periods) ~faults ~periods in
  { f_periods = periods; f_delivered = r.delivered; f_losses = r.losses;
    f_completed = r.completed; f_measured_throughput = r.throughput }
