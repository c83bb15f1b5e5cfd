(** Typed registry of named counters, gauges and histograms (PR 4
    observability layer).

    This generalizes the ad-hoc {!Lp_counters} of PR 3 (which is now a
    typed view over this registry): any subsystem registers a metric by
    name once — [let solves = Metrics.counter "lp.solves.float"] — and
    updates it from any domain. A {!snapshot} captures every registered
    metric at once; {!delta} subtracts two snapshots for window accounting
    (the pattern behind the CLI's [--metrics] flag and the bench harness's
    [BENCH_5.json]); {!to_text} and {!to_json} render snapshots for humans
    and machines respectively.

    {b Naming.} Dotted lower-case paths, coarse-to-fine:
    [<subsystem>.<quantity>[.<tag>]], e.g. [lp.solves.float],
    [lp_cache.hits.robust_plan], [pool.tasks]. Registration is idempotent:
    asking for an existing name of the same kind returns the same metric;
    asking with a different kind raises [Invalid_argument].

    {b Domain safety.} Counters and gauges update with a single atomic
    operation; histograms take a per-histogram mutex. The registry itself
    is mutex-protected, so dynamic registration (e.g. per-caller cache
    counters) is safe from pool workers. Like {!Lp_counters} before it,
    metrics are telemetry only: nothing reads them back into a
    computation, so they cannot affect planner results. *)

type counter
type gauge
type histogram

(** [counter name] returns the registered counter, creating it at 0 on
    first use. Counters are monotonic non-negative integers updated
    atomically. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Current value (atomic read). *)
val counter_value : counter -> int

(** [set_counter c v] overwrites the value. Not linearizable against
    in-flight [add]s — sequential sections only (CLI entry, bench setup,
    tests that pin a counter to a known value). *)
val set_counter : counter -> int -> unit

(** [gauge name] returns the registered gauge (a last-write-wins float,
    e.g. a cache hit rate or a pool utilization), creating it at 0. *)
val gauge : string -> gauge

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram name] returns the registered histogram, which tracks
    count / sum / min / max of observed values (enough for rates and
    means without bucket configuration). *)
val histogram : string -> histogram

val observe : histogram -> float -> unit

(** Aggregated histogram state: [h_min]/[h_max] are 0 when [h_count] is.
    [h_buckets] holds log-scale bucket counts (fixed layout: underflow
    below 1e-9, 10 buckets per decade up to 1e3, overflow above) behind
    the {!histo_percentile} estimates — treat it as opaque. *)
type histo = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : int array;
}

(** [histo_percentile h q] estimates the [q]-quantile ([q] in [\[0,1\]])
    by nearest rank over the log-scale buckets, clamped into the exact
    [\[h_min, h_max\]] range — so the estimate is within one bucket
    width (~26% relative) of the true order statistic, which is enough
    to gate tail-latency blowups. A rank that falls in the underflow
    bucket (zeros and values below 1e-9) is estimated at [h_min]. [0.]
    when empty. *)
val histo_percentile : histo -> float -> float

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histo

(** A point-in-time capture of every registered metric, sorted by name.
    Each metric is read atomically; the snapshot as a whole is not a
    consistent cut across metrics (fine for reporting, as with
    {!Lp_counters.snapshot}). *)
type snapshot = (string * value) list

val snapshot : unit -> snapshot
val find : snapshot -> string -> value option

(** [delta ~before after] is the per-metric change: counters and histogram
    counts/sums subtract; gauges and histogram min/max keep the [after]
    value (window extrema are not recoverable from two endpoint
    snapshots). Metrics registered after [before] appear with their full
    [after] value. *)
val delta : before:snapshot -> snapshot -> snapshot

(** Human-readable rendering, one [name value] line per metric. *)
val to_text : snapshot -> string

(** JSON object keyed by metric name; counters and gauges are numbers,
    histograms are [{"count":..,"sum":..,"min":..,"max":..,"p50":..,
    "p90":..,"p99":..}] objects (percentiles via {!histo_percentile},
    so {!Regress} rules can gate tail latency, not just sums). *)
val to_json : snapshot -> string

(** Zero every registered metric (the registry keeps its names). Same
    caveat as {!set_counter}: sequential sections only. *)
val reset : unit -> unit
