package main

// lineup is the gated scheduler set, one zoo spec per construction
// style: per-worker heaps with stealing (the paper's scheduler), locked
// two-choice heaps (its baseline), bucketed bags (its main competitor)
// and the lock-free exact tier.
var lineup = []string{"smq", "mq", "obim", "cbpq"}

// metric is one registered metric name. bound is the share of the
// parent's median an end-to-end metric may lose before a change counts
// as a regression; per-layer metrics carry none.
type metric struct {
	name, unit string
	higher     bool
	bound      float64
}

func (m metric) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// workloadInfo is one workload: its name, why it exists, and the
// function that sets its input up from a seed.
type workloadInfo struct {
	name, why string
	setup     func(seed uint64) (input, error)
}

// workloads, endToEnd and perLayer are the names BENCHMARK.json must
// list; names_test.go holds the two in step.
var workloads = []workloadInfo{
	{"sssp-road", "high-diameter road grids through smq.SSSP: narrow frontier and small queues, so rank quality (wasted work) decides the time",
		func(seed uint64) (input, error) { return newGraphInput(roadGraph, seed, false) }},
	{"sssp-rmat", "low-diameter power-law graphs through smq.SSSP: wide frontier, rank-insensitive for the relaxed heaps, so only raw throughput shows",
		func(seed uint64) (input, error) { return newGraphInput(rmatGraph, seed, false) }},
	{"process-road", "the sssp-road inputs through the public smq.Process loop (scalar Pop/Push, one Pending atomic per task): isolates the worker loop",
		func(seed uint64) (input, error) { return newGraphInput(roadGraph, seed, true) }},
	{"hold", "scheduler-only hold model with an empty task body: the scheduler stack is all of the time and rank is free",
		func(seed uint64) (input, error) { return holdSetup(seed), nil }},
	{"serve-drain", "internal/serve drained at saturation: channel ingest, admission and park/wake dominate and the scheduler is a minor share",
		func(seed uint64) (input, error) { return newServeInput(seed, serveRequests), nil }},
}

// bound is every end-to-end metric's: the most the contract allows. The
// driver refuses the benchmark when ten seeds of the same code spread by
// more than a metric's bound on any workload, and asks for a third of it
// as the target. A quiet set of ten spread by 5 to 9 % at its widest for
// each of the five metrics, which is a third of 0.25; a set that ran into
// three minutes of a busy neighbour spread by 18 to 29 % on serve-drain,
// for every scheduler alike (see the README). No metric has room for less.
const bound = 0.25

func endToEnd() []metric {
	ms := []metric{{"setup_s", "s", false, bound}}
	for _, s := range lineup {
		ms = append(ms, metric{"tasks_per_s." + s, "1/s", true, bound})
	}
	return ms
}

// zooSpecs are the specs the zoo probe runs: the zoo as it stood when
// the benchmark was defined. The list is fixed here, not read from
// smq.SpecNames(), so that a spec added to the library later does not
// change the metrics this program reports from what BENCHMARK.json lists;
// one renamed or removed stops the run at its first build.
var zooSpecs = []string{"coarse", "cbpq", "cbpq-elim", "mq", "mq-batch", "emq", "smq", "smq-skip", "reld", "klsm", "obim", "pmod", "spray"}

func perLayer() []metric {
	var ms []metric
	perSched := []metric{
		{name: "sched.pop_share", unit: "frac"},
		{name: "sched.push_share", unit: "frac"},
		{name: "sched.pop_ns", unit: "ns"},
		{name: "sched.push_ns", unit: "ns"},
		{name: "sched.empty_pop_frac", unit: "frac"},
		{name: "sched.work_increase", unit: "ratio"},
		{name: "sched.steal_task_frac", unit: "frac"},
		{name: "sched.lock_fails_per_ktask", unit: "1/ktask"},
		{name: "sched.eliminations_per_ktask", unit: "1/ktask"},
		{name: "loop.idle_share", unit: "frac"},
		{name: "loop.body_share", unit: "frac"},
		{name: "run.alloc_bytes_per_task", unit: "B/task"},
		{name: "run.gc_pause_ms", unit: "ms"},
		{name: "run.time_iqr_frac", unit: "frac"},
		{name: "trace.overhead_frac", unit: "frac"},
	}
	for _, m := range perSched {
		for _, s := range lineup {
			ms = append(ms, metric{name: m.name + "." + s, unit: m.unit})
		}
	}
	ms = append(ms,
		metric{name: "run.peak_rss_mb", unit: "MB"},
		metric{name: "run.layout_hit_frac", unit: "frac", higher: true},
		metric{name: "seq.time_s", unit: "s"},
		metric{name: "scale.tasks_per_s_w1.smq", unit: "1/s", higher: true},
	)
	for _, spec := range zooSpecs {
		ms = append(ms, metric{name: "zoo.pairs_per_s." + spec, unit: "1/s", higher: true})
	}
	ms = append(ms,
		metric{name: "pq.dheap_pair_ns", unit: "ns"},
		metric{name: "pq.skiplist_pair_ns", unit: "ns"},
		metric{name: "contend.lock_pair_ns", unit: "ns"},
		metric{name: "contend.lock_handoff_ns", unit: "ns"},
		metric{name: "cskiplist.pair_ns", unit: "ns"},
		metric{name: "serve.feed_wait_share", unit: "frac"},
		metric{name: "serve.stall_frac", unit: "frac"},
		metric{name: "serve.parks", unit: "count"},
		metric{name: "serve.mean_active_workers", unit: "count", higher: true},
		metric{name: "serve.sojourn_p50_us", unit: "us"},
		metric{name: "serve.sojourn_p99_us", unit: "us"},
		metric{name: "serve.gen_max_lag_us", unit: "us"},
	)
	return ms
}
