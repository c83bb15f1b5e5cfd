(** Discrete-event replay of a periodic multicast schedule.

    The simulator unrolls a {!Schedule.t} over a number of periods and
    replays every transfer as a timed event. One replay pass serves two
    readings. Per (tree, edge) pair it turns cumulative busy time into
    receptions at whole-message granularity (a busy interval carrying [q]
    messages of cost [c] delivers message boundaries at [start + c,
    start + 2c, ...]; receptions may span consecutive busy intervals),
    then validates them in completion order: a reception counts only if
    the sender is the tree root or already held a validly received copy
    when the transmission began. A target at depth [d] of tree [k] is owed
    messages [0 .. (periods - d) * m_k - 1] within the horizon.

    {!run} reads the fault-free pass as a verifier, {!run_with_faults}
    reads a faulty one as a loss report. *)

type stats = {
  periods : int;
  messages_delivered : int; (** valid target receptions, owed or not *)
  measured_throughput : float;
      (** distinct multicasts fully delivered per time unit, in steady state *)
  max_latency : float; (** worst emission-to-last-delivery latency *)
}

(** [run sched ~periods] replays the schedule fault-free and re-verifies
    what its construction promises: {b port exclusivity} (no node runs two
    sends or two receives concurrently), {b causality} (no rejected
    reception: nodes only forward what they fully received) and {b delivery
    completeness} (every owed delivery happens, none twice). Returns
    [Error reason] on the first violation, or when [periods < 1]. [periods]
    must exceed {!Schedule.init_periods} for any message to be delivered. *)
val run : Schedule.t -> periods:int -> (stats, string) Result.t

(** One target-message delivery that a fault scenario prevented. *)
type loss = {
  l_tree : int;
  l_target : int;
  l_message : int;
}

type fault_stats = {
  f_periods : int;
  f_delivered : int;  (** target-message deliveries that still went through *)
  f_losses : loss list;  (** owed deliveries that never happened *)
  f_completed : int;  (** multicast instances every target still received *)
  f_measured_throughput : float;
      (** surviving steady-state rate, same warm window as {!run} *)
}

(** [run_with_faults sched ~faults ~periods] replays the {e fixed} schedule
    against a {!Fault.scenario} — the schedule is not re-timed. A transfer
    over a dead link makes no progress during its reserved slot; a degraded
    link accrues progress at rate [1/factor], so messages complete late or
    not at all, and a loss near the root cascades to the whole subtree.
    Unlike {!run} this never aborts — it reports which owed deliveries were
    lost and what throughput survived. *)
val run_with_faults : Schedule.t -> faults:Fault.scenario -> periods:int -> fault_stats
