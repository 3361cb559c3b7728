// Package perfbench produces the repository's recorded performance
// trajectory: a schema-versioned JSON report of scheduler throughput,
// contention and allocation behaviour on a fixed contended
// uniform-priority microbenchmark, emitted by `smqbench -json` and
// committed as BENCH_PR<n>.json so that every optimisation PR extends a
// measured history instead of a claimed one.
//
// The workload is the throughput benchmark of the Multi-Queue
// literature (Rihani et al. 2014; Williams et al. 2021; §5 of the SMQ
// paper): prefill the queue, then every worker runs pop→push pairs with
// uniformly random priorities, keeping the queue size stationary while
// all workers contend on the shared structure. Reported per scheduler:
// throughput, lock failures (contention), allocations per operation
// (steady-state allocation discipline) and total GC pause accumulated
// during the run.
package perfbench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/xrand"
	"repro/internal/zoo"
)

// SchemaVersion identifies the report layout. Bump it when fields
// change meaning or disappear; additions are backward compatible.
// Version history:
//
//	1 — scalar throughput / contention / allocation metrics.
//	2 — adds the batched (PushN/PopN) throughput mode and pop-latency
//	    percentiles (p50/p99/p99.9 from a log-bucketed histogram).
//	3 — adds the open-loop serving trajectory (the "serve" section:
//	    per-scheduler runs of internal/serve with per-tenant latency
//	    percentiles, admission/shedding accounting, elastic-pool
//	    activity and idle-service CPU). A version-3 report may carry
//	    the microbenchmark results, the serve section, or both.
//	4 — adds the sharded experiment artifact layer: a host fingerprint
//	    ("host"/"hosts"), experiment fragments ("experiments" — per-cell
//	    records with status ok/timeout/error and shard metadata), and
//	    "merged_from" on reports produced by `benchcheck merge`. A
//	    version-4 report may carry any non-empty combination of
//	    Results / Serve / Experiments.
//	5 — adds the discrete-event simulation trajectory (the "desim"
//	    section: per-scheduler internal/desim runs with event
//	    throughput, the safe-lookahead window derived from the
//	    scheduler's rank-error bound, causality-violation counts and
//	    per-tenant simulated sojourn percentiles). A version-5 report
//	    may carry any non-empty combination of
//	    Results / Serve / Experiments / Desim.
//	6 — adds "bound_source" on desim runs (exact / expectation /
//	    unchecked), making the provenance of the causality window
//	    explicit: an unchecked run records throughput but makes no
//	    safety claim, and the label must agree with the
//	    rank_bound/lookahead fields it summarizes.
//	7 — adds the decremental-hold microbenchmark facet
//	    ("hold_throughput_ops_per_sec" / "hold_ns_per_op"): pop the
//	    minimum, re-insert just above it — the below-head access
//	    pattern SSSP/A*/delta-stepping relaxations generate, and the
//	    worst case of the exact tiers. Also adds the
//	    "eliminations"/"combines" counters captured from that run for
//	    schedulers with an elimination/combining layer (CBPQ).
//
// Validate is version-gated: committed version-1 through version-6
// trajectory files (BENCH_PR9.json and earlier) remain valid without
// the newer fields.
const SchemaVersion = 7

// Report is the top-level JSON document.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedBy   string `json:"generated_by"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Workers       int    `json:"workers"`
	Prefill       int    `json:"prefill"`
	OpsPerWorker  int    `json:"ops_per_worker"`
	Seed          uint64 `json:"seed"`
	Reps          int    `json:"reps,omitempty"`
	// BatchSize is the PushN/PopN batch size of the batched mode
	// (schema >= 2).
	BatchSize int `json:"batch_size,omitempty"`
	// LatencyOps is the number of individually timed pops per worker
	// behind the latency percentiles (schema >= 2).
	LatencyOps int `json:"latency_ops,omitempty"`

	Results []Result `json:"results,omitempty"`

	// Serve is the open-loop serving trajectory (schema >= 3): one
	// entry per scheduler run through internal/serve's fixed-rate load
	// generator. May be empty for microbenchmark-only reports; a
	// version-3 report must carry at least one of Results / Serve.
	Serve []ServeResult `json:"serve,omitempty"`

	// Host fingerprints the machine that produced this report (schema
	// >= 4). Merged reports clear it and list every contributing
	// machine in Hosts instead.
	Host  *HostInfo  `json:"host,omitempty"`
	Hosts []HostInfo `json:"hosts,omitempty"`

	// Experiments holds sharded experiment fragments (schema >= 4):
	// per-cell records of harness experiment grids, produced by
	// `smqbench -fragment` shards and combined by `benchcheck merge`.
	Experiments []ExperimentFragment `json:"experiments,omitempty"`

	// Desim is the discrete-event simulation trajectory (schema >= 5):
	// one entry per (scheduler, model) run of internal/desim's
	// scheduler-driven event loop with a safe-lookahead window.
	Desim []DesimResult `json:"desim,omitempty"`

	// MergedFrom counts the fragments a merged report was built from
	// (0 for reports written directly by a benchmark run).
	MergedFrom int `json:"merged_from,omitempty"`
}

// DesimResult is one scheduler's discrete-event simulation run (schema
// >= 5): a simulation model's event population pushed through the
// scheduler at priority = timestamp, with pops outside the
// safe-lookahead window counted as causality violations. For a
// scheduler whose rank-error bound is exact (k-LSM, coarse) and whose
// window covers the bound, violations must be zero — Validate enforces
// exactly that, so a committed artifact is a machine-checked safety
// claim, not a report of a lucky run.
type DesimResult struct {
	Scheduler string `json:"scheduler"`
	// Model names the simulation model ("cluster" or "dag").
	Model   string `json:"model"`
	Workers int    `json:"workers"`
	Seed    uint64 `json:"seed"`
	// Events is the number of simulation events executed.
	Events       uint64  `json:"events"`
	DurationNs   int64   `json:"duration_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// RankBound is the scheduler's rank-error bound at this worker
	// count (-1 = no usable bound); BoundExact says whether it is a
	// worst-case guarantee or an expectation-scale estimate.
	RankBound  int64 `json:"rank_bound"`
	BoundExact bool  `json:"bound_exact"`
	// Lookahead is the safe-lookahead window the run was checked
	// against, in rank units (-1 = unchecked).
	Lookahead int64 `json:"lookahead"`
	// BoundSource labels where the window came from (schema >= 6):
	// "exact" (worst-case rank-bound guarantee — zero violations is a
	// hard validation rule), "expectation" (expectation-scale estimate
	// — violations are informative, not fatal), or "unchecked"
	// (lookahead −1: no usable bound, no causality claim).
	BoundSource string `json:"bound_source,omitempty"`
	// Violations counts pops that ran ahead of the window while
	// smaller-timestamp events were still pending.
	Violations uint64 `json:"causality_violations"`
	// MaxLead / MeanLead describe observed lookahead occupancy: how
	// many smaller-timestamp events were pending at pop time.
	MaxLead  int64   `json:"max_lead"`
	MeanLead float64 `json:"mean_lead"`
	// Checksum is the model's order-independent state digest; equal
	// checksums across schedulers certify identical simulated outcomes.
	Checksum uint64 `json:"checksum"`
	// PerTenant is the cluster model's per-tenant simulated-sojourn
	// breakdown (empty for models without tenants).
	PerTenant []TenantDesimResult `json:"per_tenant,omitempty"`
}

// TenantDesimResult is one tenant's slice of a cluster simulation.
// Sojourn percentiles are in simulated time units (ticks), not
// nanoseconds: they describe the modelled system, so they must be
// identical across schedulers, not merely close.
type TenantDesimResult struct {
	Tenant    int    `json:"tenant"`
	Completed uint64 `json:"completed"`
	P50       uint64 `json:"sojourn_p50"`
	P99       uint64 `json:"sojourn_p99"`
	P999      uint64 `json:"sojourn_p999"`
}

// ServeResult is one scheduler's open-loop serving run (schema >= 3):
// a fixed offered rate of Zipf-skewed tenant traffic with
// bounded-Pareto service costs pushed through internal/serve's
// admission control and elastic worker pool.
type ServeResult struct {
	Scheduler string `json:"scheduler"`
	// OfferedRatePerSec is the load generator's target arrival rate.
	OfferedRatePerSec float64 `json:"offered_rate_per_sec"`
	// Workers is the scheduler's worker-slot count (ingest worker
	// included); MinWorkers is the elastic pool's floor.
	Workers    int `json:"workers"`
	MinWorkers int `json:"min_workers"`
	// Tenants and TenantSkew describe the Zipf tenant mix.
	Tenants    int     `json:"tenants"`
	TenantSkew float64 `json:"tenant_skew"`
	// Ingested = Completed + Shed is the zero-lost-tasks ledger:
	// Validate rejects any run where it does not balance.
	Ingested  uint64 `json:"ingested"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	// DurationNs covers first arrival to quiescence.
	DurationNs            int64   `json:"duration_ns"`
	ThroughputTasksPerSec float64 `json:"throughput_tasks_per_sec"`
	// Stalls / StallNs account backpressure: how often and for how
	// long ingestion was paused at the admission high watermark.
	Stalls  uint64 `json:"stalls"`
	StallNs int64  `json:"stall_ns"`
	// Parks / Unparks / MeanActiveWorkers describe the elastic pool's
	// activity over the run.
	Parks             uint64  `json:"parks"`
	Unparks           uint64  `json:"unparks"`
	MeanActiveWorkers float64 `json:"mean_active_workers"`
	// IdleCPUFrac is the process CPU fraction (CPU-seconds per
	// wall-second) measured over an idle window with the service up
	// and zero offered load (before the load generator starts) — the
	// busy-spin regression
	// metric: the pre-fix Backoff burned ~1.0 per spinning worker.
	// Negative means the platform could not measure it.
	IdleCPUFrac float64 `json:"idle_cpu_frac"`
	// PerTenant is the per-tenant latency/shedding breakdown, indexed
	// by tenant id (tenant 0 = highest priority class).
	PerTenant []TenantServeResult `json:"per_tenant"`
}

// TenantServeResult is one tenant's slice of a serving run. Latency is
// scheduled-arrival to completion (sojourn: admission + queueing +
// service), from the same log-bucketed histogram as the pop-latency
// percentiles, so coordinated omission cannot hide backpressure stalls.
type TenantServeResult struct {
	Tenant    int     `json:"tenant"`
	Completed uint64  `json:"completed"`
	Shed      uint64  `json:"shed"`
	P50Ns     float64 `json:"latency_p50_ns"`
	P99Ns     float64 `json:"latency_p99_ns"`
	P999Ns    float64 `json:"latency_p999_ns"`
}

// Result is one scheduler's measurement.
type Result struct {
	Scheduler string `json:"scheduler"`
	// ThroughputOpsPerSec counts completed pop→push pairs per second
	// summed over all workers.
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`
	NsPerOp             float64 `json:"ns_per_op"`
	// LockFails and EmptyPops come from the scheduler's own counters.
	LockFails uint64 `json:"lock_fails"`
	EmptyPops uint64 `json:"empty_pops"`
	// AllocsPerOp / BytesPerOp are heap-allocation deltas over the
	// timed section divided by total operations (steady state should
	// be ~0 for the buffered schedulers).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// GCPauseTotalNs is the stop-the-world pause time accumulated
	// during the timed section.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`

	// BatchedThroughputOpsPerSec / BatchedNsPerOp measure the same
	// stationary pop→push workload moved through PopN/PushN batches of
	// Report.BatchSize tasks (schema >= 2). The ratio to the scalar
	// throughput is the amortization win of the bulk fast paths.
	BatchedThroughputOpsPerSec float64 `json:"batched_throughput_ops_per_sec,omitempty"`
	BatchedNsPerOp             float64 `json:"batched_ns_per_op,omitempty"`

	// PopP50Ns / PopP99Ns / PopP999Ns are scalar-Pop latency
	// percentiles from a log-bucketed histogram over a separate timed
	// pass of Report.LatencyOps pops per worker (schema >= 2). They
	// include ~timer-call overhead (two monotonic clock reads per
	// sample), which is identical across schedulers, so the numbers
	// compare within a report; the tail percentiles expose lock convoys
	// and sweep fallbacks that throughput averages hide.
	PopP50Ns  float64 `json:"pop_latency_p50_ns,omitempty"`
	PopP99Ns  float64 `json:"pop_latency_p99_ns,omitempty"`
	PopP999Ns float64 `json:"pop_latency_p999_ns,omitempty"`

	// HoldThroughputOpsPerSec / HoldNsPerOp measure the decremental
	// "hold" workload (schema >= 7): pop the minimum and re-insert just
	// above the popped priority, so every push lands below the current
	// head range. This is the access pattern SSSP/A*/delta-stepping
	// relaxations generate and the structural worst case of the exact
	// tiers — the facet the CBPQ elimination + combining layer exists
	// for. Ops are pop→push pairs, as in the scalar pass.
	HoldThroughputOpsPerSec float64 `json:"hold_throughput_ops_per_sec,omitempty"`
	HoldNsPerOp             float64 `json:"hold_ns_per_op,omitempty"`

	// Eliminations / Combines are the scheduler's own counters from the
	// hold run (schema >= 7): pops served directly from an elimination
	// layer, and inserts merged in bulk by a combining rebuild. Zero
	// (omitted) for schedulers without such a layer.
	Eliminations uint64 `json:"eliminations,omitempty"`
	Combines     uint64 `json:"combines,omitempty"`
}

// Config parameterizes a perfbench run.
type Config struct {
	// Workers is the number of worker goroutines (and scheduler worker
	// slots). 0 means GOMAXPROCS.
	Workers int
	// Prefill is the number of tasks inserted before the timed section.
	// 0 means 4096.
	Prefill int
	// OpsPerWorker is the number of pop→push pairs each worker runs.
	// 0 means 200000.
	OpsPerWorker int
	// Seed makes the priority streams reproducible. 0 means 1.
	Seed uint64
	// Reps is the number of repetitions per scheduler; the fastest is
	// reported (the harness convention — the minimum is the least noisy
	// estimator of the achievable rate). 0 means 1.
	Reps int
	// Schedulers restricts the lineup to the named subset; nil runs
	// everything in Lineup order.
	Schedulers []string
	// BatchSize is the PushN/PopN batch size for the batched mode.
	// 0 means DefaultBatchSize.
	BatchSize int
	// LatencyOps is the number of individually timed pops per worker
	// for the latency pass. 0 derives min(OpsPerWorker, 50000).
	LatencyOps int
}

// DefaultBatchSize is the batched-mode PushN/PopN batch size when
// Config.BatchSize is zero — large enough that lock amortization
// dominates, small enough to stay within the schedulers' own buffer
// scale.
const DefaultBatchSize = 8

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Prefill <= 0 {
		c.Prefill = 4096
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 200000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.LatencyOps <= 0 {
		c.LatencyOps = min(c.OpsPerWorker, 50000)
	}
}

// Lineup returns the scheduler names measured by default, in report
// order: the exact baselines (lock-based coarse, then the lock-free
// CBPQ), the Multi-Queue family, the SMQ, and the non-Multi-Queue
// relaxed baselines.
func Lineup() []string {
	return []string{"coarse", "cbpq", "mq", "mq-batch", "emq", "smq", "klsm", "obim", "spray"}
}

// build constructs the named scheduler for w workers via the zoo
// registry — the single name→factory table the whole repository shares.
func build(name string, workers int, seed uint64) (sched.Scheduler[int], error) {
	spec, ok := zoo.Lookup[int](name)
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown scheduler %q (known: %v)", name, zoo.Names())
	}
	return spec.Build(workers, seed), nil
}

// prioBits bounds the uniform priority domain; ~1M distinct priorities
// keeps heaps deep enough to be interesting without overflow concerns.
const prioBits = 20

// Run executes the microbenchmark for every configured scheduler and
// assembles the report.
func Run(cfg Config) (*Report, error) {
	cfg.normalize()
	names := cfg.Schedulers
	if len(names) == 0 {
		names = Lineup()
	}
	r := &Report{
		SchemaVersion: SchemaVersion,
		GeneratedBy:   "smqbench -json",
		Host:          CollectHost(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       cfg.Workers,
		Prefill:       cfg.Prefill,
		OpsPerWorker:  cfg.OpsPerWorker,
		Seed:          cfg.Seed,
		Reps:          cfg.Reps,
		BatchSize:     cfg.BatchSize,
		LatencyOps:    cfg.LatencyOps,
	}
	for _, name := range names {
		best, err := runOne(name, cfg)
		if err != nil {
			return nil, err
		}
		for rep := 1; rep < cfg.Reps; rep++ {
			res, err := runOne(name, cfg)
			if err != nil {
				return nil, err
			}
			mergeBest(&best, res)
		}
		r.Results = append(r.Results, best)
	}
	return r, nil
}

// mergeBest folds one repetition into the kept result, fastest-kept per
// mode: the scalar metrics travel together (they come from one timed
// section), the batched throughput is kept at its own best repetition,
// and the latency percentiles take the field-wise minimum — within a
// repetition p50 <= p99 <= p99.9, and a field-wise minimum over such
// triples stays monotone.
func mergeBest(best *Result, res Result) {
	if res.ThroughputOpsPerSec > best.ThroughputOpsPerSec {
		scalarBatched := best.BatchedThroughputOpsPerSec
		scalarBatchedNs := best.BatchedNsPerOp
		hold, holdNs := best.HoldThroughputOpsPerSec, best.HoldNsPerOp
		elim, comb := best.Eliminations, best.Combines
		p50, p99, p999 := best.PopP50Ns, best.PopP99Ns, best.PopP999Ns
		*best = res
		best.BatchedThroughputOpsPerSec = scalarBatched
		best.BatchedNsPerOp = scalarBatchedNs
		best.HoldThroughputOpsPerSec, best.HoldNsPerOp = hold, holdNs
		best.Eliminations, best.Combines = elim, comb
		best.PopP50Ns, best.PopP99Ns, best.PopP999Ns = p50, p99, p999
	}
	if res.BatchedThroughputOpsPerSec > best.BatchedThroughputOpsPerSec {
		best.BatchedThroughputOpsPerSec = res.BatchedThroughputOpsPerSec
		best.BatchedNsPerOp = res.BatchedNsPerOp
	}
	if res.HoldThroughputOpsPerSec > best.HoldThroughputOpsPerSec {
		best.HoldThroughputOpsPerSec = res.HoldThroughputOpsPerSec
		best.HoldNsPerOp = res.HoldNsPerOp
		// The counters travel with the hold run they were observed in.
		best.Eliminations = res.Eliminations
		best.Combines = res.Combines
	}
	best.PopP50Ns = min(best.PopP50Ns, res.PopP50Ns)
	best.PopP99Ns = min(best.PopP99Ns, res.PopP99Ns)
	best.PopP999Ns = min(best.PopP999Ns, res.PopP999Ns)
}

// runOne measures one scheduler: the scalar throughput pass, the
// batched (PushN/PopN) throughput pass, and the individually timed
// latency pass, each on a freshly built and prefilled scheduler.
func runOne(name string, cfg Config) (Result, error) {
	res, err := runScalar(name, cfg)
	if err != nil {
		return Result{}, err
	}
	bThr, bNs, err := runBatched(name, cfg)
	if err != nil {
		return Result{}, err
	}
	res.BatchedThroughputOpsPerSec = bThr
	res.BatchedNsPerOp = bNs
	p50, p99, p999, err := runLatency(name, cfg)
	if err != nil {
		return Result{}, err
	}
	res.PopP50Ns, res.PopP99Ns, res.PopP999Ns = p50, p99, p999
	hThr, hNs, elim, comb, err := runHold(name, cfg)
	if err != nil {
		return Result{}, err
	}
	res.HoldThroughputOpsPerSec = hThr
	res.HoldNsPerOp = hNs
	res.Eliminations = elim
	res.Combines = comb
	return res, nil
}

// runHold measures the decremental hold workload: each worker pops a
// minimum and re-inserts it at popped-priority + small uniform delta,
// keeping the queue size stationary while the resident set drifts
// upward — every push is below the head range of an exact scheduler.
// A locally dry pop reseeds with a fresh uniform priority, as in the
// scalar pass.
func runHold(name string, cfg Config) (throughput, nsPerOp float64, eliminations, combines uint64, err error) {
	s, err := prefilled(name, cfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Worker(w)
			rng := xrand.New(cfg.Seed + uint64(w)*0x9e3779b97f4a7c15)
			for i := 0; i < cfg.OpsPerWorker; i++ {
				p, v, ok := h.Pop()
				if !ok {
					h.Push(rng.Uint64()>>(64-prioBits), i)
					continue
				}
				h.Push(p+rng.Uint64()%64, v)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	totalOps := float64(cfg.Workers) * float64(cfg.OpsPerWorker)
	st := s.Stats()
	return totalOps / elapsed.Seconds(),
		float64(elapsed.Nanoseconds()) / totalOps,
		st.Eliminations, st.Combines, nil
}

// prefilled builds the named scheduler and prefills it sequentially
// through the worker handles (handles are not concurrency-safe, but
// sequential multiplexed use is fine).
func prefilled(name string, cfg Config) (sched.Scheduler[int], error) {
	s, err := build(name, cfg.Workers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	seedRng := xrand.New(cfg.Seed ^ 0xa5a5a5a5)
	for i := 0; i < cfg.Prefill; i++ {
		s.Worker(i%cfg.Workers).Push(seedRng.Uint64()>>(64-prioBits), i)
	}
	return s, nil
}

func runScalar(name string, cfg Config) (Result, error) {
	s, err := prefilled(name, cfg)
	if err != nil {
		return Result{}, err
	}

	// Warm the allocator and GC state so the measured deltas reflect
	// the scheduler, not runtime lazy initialisation.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Worker(w)
			rng := xrand.New(cfg.Seed + uint64(w)*0x9e3779b97f4a7c15)
			for i := 0; i < cfg.OpsPerWorker; i++ {
				_, v, ok := h.Pop()
				if !ok {
					// Locally dry (relaxed schedulers may hide tasks in
					// other workers' buffers): reseed to keep the queue
					// size stationary; this is the push half of the pair.
					h.Push(rng.Uint64()>>(64-prioBits), i)
					continue
				}
				h.Push(rng.Uint64()>>(64-prioBits), v)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	totalOps := float64(cfg.Workers) * float64(cfg.OpsPerWorker)
	st := s.Stats()
	return Result{
		Scheduler:           name,
		ThroughputOpsPerSec: totalOps / elapsed.Seconds(),
		NsPerOp:             float64(elapsed.Nanoseconds()) / totalOps,
		LockFails:           st.LockFails,
		EmptyPops:           st.EmptyPops,
		AllocsPerOp:         float64(after.Mallocs-before.Mallocs) / totalOps,
		BytesPerOp:          float64(after.TotalAlloc-before.TotalAlloc) / totalOps,
		GCPauseTotalNs:      after.PauseTotalNs - before.PauseTotalNs,
	}, nil
}

// padCount is a per-worker operation counter padded against false
// sharing (the batched pass completes a variable number of pairs per
// worker, so the exact total must be summed afterwards).
type padCount struct {
	n uint64
	_ [56]byte
}

// runBatched measures the stationary pop→push workload moved through
// the bulk operations: each worker drains up to BatchSize tasks per
// PopN and re-inserts the whole batch with fresh random priorities in
// one PushN. Ops are pop→push pairs, as in the scalar pass.
func runBatched(name string, cfg Config) (throughput, nsPerOp float64, err error) {
	s, err := prefilled(name, cfg)
	if err != nil {
		return 0, 0, err
	}
	counts := make([]padCount, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Worker(w)
			rng := xrand.New(cfg.Seed + uint64(w)*0x9e3779b97f4a7c15)
			buf := make([]sched.Task[int], cfg.BatchSize)
			ps := make([]uint64, 0, cfg.BatchSize)
			vs := make([]int, 0, cfg.BatchSize)
			done := 0
			for done < cfg.OpsPerWorker {
				k := h.PopN(buf)
				if k == 0 {
					// Locally dry: reseed one whole batch to keep the
					// queue size stationary (the push half of the pairs).
					k = cfg.BatchSize
					ps, vs = ps[:0], vs[:0]
					for i := 0; i < k; i++ {
						ps = append(ps, rng.Uint64()>>(64-prioBits))
						vs = append(vs, done+i)
					}
					h.PushN(ps, vs)
					done += k
					continue
				}
				ps, vs = ps[:0], vs[:0]
				for i := 0; i < k; i++ {
					ps = append(ps, rng.Uint64()>>(64-prioBits))
					vs = append(vs, buf[i].V)
				}
				h.PushN(ps, vs)
				done += k
			}
			counts[w].n = uint64(done)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var totalOps uint64
	for i := range counts {
		totalOps += counts[i].n
	}
	return float64(totalOps) / elapsed.Seconds(),
		float64(elapsed.Nanoseconds()) / float64(totalOps), nil
}

// runLatency times every scalar Pop individually into per-worker
// log-bucketed histograms and reports merged percentiles. The sample
// includes two monotonic clock reads (identical across schedulers);
// empty pops are timed too — a sweep that scans every queue before
// reporting emptiness is real tail latency, not noise.
func runLatency(name string, cfg Config) (p50, p99, p999 float64, err error) {
	s, err := prefilled(name, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	hists := make([]Histogram, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Worker(w)
			hist := &hists[w]
			rng := xrand.New(cfg.Seed + uint64(w)*0x9e3779b97f4a7c15)
			for i := 0; i < cfg.LatencyOps; i++ {
				t0 := time.Now()
				_, v, ok := h.Pop()
				// Clamp below-clock-resolution samples to 1ns: a pop
				// faster than the monotonic tick must still count as a
				// positive latency, or coarse-timer platforms would
				// emit p50 = 0 and fail schema validation.
				d := uint64(time.Since(t0))
				if d == 0 {
					d = 1
				}
				hist.Record(d)
				if !ok {
					h.Push(rng.Uint64()>>(64-prioBits), i)
					continue
				}
				h.Push(rng.Uint64()>>(64-prioBits), v)
			}
		}(w)
	}
	wg.Wait()
	var merged Histogram
	for i := range hists {
		merged.Merge(&hists[i])
	}
	return float64(merged.Quantile(0.50)),
		float64(merged.Quantile(0.99)),
		float64(merged.Quantile(0.999)), nil
}

// Validate checks a report against the schema contract. CI runs it over
// the freshly generated artifact, and the unit tests run it over the
// committed BENCH_*.json files, so a drifting writer fails the build.
func Validate(r *Report) error {
	if r == nil {
		return fmt.Errorf("perfbench: nil report")
	}
	// Version-gated: committed version-1 through version-6 trajectory
	// files remain valid without the later fields; anything else must be
	// the current schema.
	if r.SchemaVersion < 1 || r.SchemaVersion > SchemaVersion {
		return fmt.Errorf("perfbench: schema_version = %d, want 1..%d", r.SchemaVersion, SchemaVersion)
	}
	if r.GoVersion == "" || r.GeneratedBy == "" {
		return fmt.Errorf("perfbench: missing go_version / generated_by")
	}
	if len(r.Serve) > 0 && r.SchemaVersion < 3 {
		return fmt.Errorf("perfbench: serve section requires schema >= 3, got %d", r.SchemaVersion)
	}
	if (len(r.Experiments) > 0 || r.Host != nil || len(r.Hosts) > 0) && r.SchemaVersion < 4 {
		return fmt.Errorf("perfbench: experiments/host sections require schema >= 4, got %d", r.SchemaVersion)
	}
	if len(r.Desim) > 0 && r.SchemaVersion < 5 {
		return fmt.Errorf("perfbench: desim section requires schema >= 5, got %d", r.SchemaVersion)
	}
	if len(r.Results) == 0 && len(r.Serve) == 0 && len(r.Experiments) == 0 && len(r.Desim) == 0 {
		return fmt.Errorf("perfbench: no results")
	}
	if len(r.Results) > 0 {
		if r.Workers <= 0 || r.Prefill <= 0 || r.OpsPerWorker <= 0 {
			return fmt.Errorf("perfbench: non-positive run parameters: %+v", r)
		}
		if r.SchemaVersion >= 2 && r.BatchSize <= 0 {
			return fmt.Errorf("perfbench: schema >= 2 report without batch_size")
		}
	}
	seen := make(map[string]bool, len(r.Results))
	for _, res := range r.Results {
		if res.Scheduler == "" {
			return fmt.Errorf("perfbench: result with empty scheduler name")
		}
		if seen[res.Scheduler] {
			return fmt.Errorf("perfbench: duplicate scheduler %q", res.Scheduler)
		}
		seen[res.Scheduler] = true
		if res.ThroughputOpsPerSec <= 0 || res.NsPerOp <= 0 {
			return fmt.Errorf("perfbench: %s: non-positive throughput", res.Scheduler)
		}
		if res.AllocsPerOp < 0 || res.BytesPerOp < 0 {
			return fmt.Errorf("perfbench: %s: negative allocation rate", res.Scheduler)
		}
		if r.SchemaVersion >= 2 {
			if res.BatchedThroughputOpsPerSec <= 0 || res.BatchedNsPerOp <= 0 {
				return fmt.Errorf("perfbench: %s: non-positive batched throughput", res.Scheduler)
			}
			if res.PopP50Ns <= 0 || res.PopP99Ns <= 0 || res.PopP999Ns <= 0 {
				return fmt.Errorf("perfbench: %s: missing pop-latency percentiles", res.Scheduler)
			}
			if res.PopP50Ns > res.PopP99Ns || res.PopP99Ns > res.PopP999Ns {
				return fmt.Errorf("perfbench: %s: non-monotone pop-latency percentiles (p50=%g p99=%g p99.9=%g)",
					res.Scheduler, res.PopP50Ns, res.PopP99Ns, res.PopP999Ns)
			}
		}
		if r.SchemaVersion >= 7 {
			if res.HoldThroughputOpsPerSec <= 0 || res.HoldNsPerOp <= 0 {
				return fmt.Errorf("perfbench: %s: non-positive hold throughput", res.Scheduler)
			}
		} else if res.Eliminations != 0 || res.Combines != 0 || res.HoldThroughputOpsPerSec != 0 {
			return fmt.Errorf("perfbench: %s: hold-facet fields require schema >= 7, got %d", res.Scheduler, r.SchemaVersion)
		}
	}
	seenServe := make(map[string]bool, len(r.Serve))
	for _, sr := range r.Serve {
		if err := validateServe(&sr); err != nil {
			return err
		}
		if seenServe[sr.Scheduler] {
			return fmt.Errorf("perfbench: duplicate serve scheduler %q", sr.Scheduler)
		}
		seenServe[sr.Scheduler] = true
	}
	for i := range r.Experiments {
		if err := validateFragment(&r.Experiments[i]); err != nil {
			return err
		}
	}
	seenDesim := make(map[string]bool, len(r.Desim))
	for i := range r.Desim {
		dr := &r.Desim[i]
		if err := validateDesim(dr, r.SchemaVersion); err != nil {
			return err
		}
		key := dr.Scheduler + "/" + dr.Model
		if seenDesim[key] {
			return fmt.Errorf("perfbench: duplicate desim run %q", key)
		}
		seenDesim[key] = true
	}
	return nil
}

// validateDesim checks one simulation run's internal consistency. The
// load-bearing rule is the safety claim: a scheduler with an exact
// rank-error bound, checked with a window at least that bound, must
// report zero causality violations — a violation there means either the
// scheduler or the window derivation is wrong, and the artifact must
// not be committable.
func validateDesim(dr *DesimResult, schemaVersion int) error {
	if dr.Scheduler == "" || dr.Model == "" {
		return fmt.Errorf("perfbench: desim result with empty scheduler/model name")
	}
	tag := dr.Scheduler + "/" + dr.Model
	// BoundSource (schema >= 6) must exist and agree with the fields it
	// summarizes; version-5 artifacts legitimately predate it.
	if schemaVersion >= 6 || dr.BoundSource != "" {
		switch dr.BoundSource {
		case "exact":
			if !dr.BoundExact || dr.RankBound < 0 || dr.Lookahead < 0 {
				return fmt.Errorf("perfbench: desim %s: bound_source exact contradicts bound_exact=%t rank_bound=%d lookahead=%d",
					tag, dr.BoundExact, dr.RankBound, dr.Lookahead)
			}
		case "expectation":
			if dr.BoundExact || dr.Lookahead < 0 {
				return fmt.Errorf("perfbench: desim %s: bound_source expectation contradicts bound_exact=%t lookahead=%d",
					tag, dr.BoundExact, dr.Lookahead)
			}
		case "unchecked":
			if dr.Lookahead >= 0 {
				return fmt.Errorf("perfbench: desim %s: bound_source unchecked but lookahead %d >= 0", tag, dr.Lookahead)
			}
		default:
			return fmt.Errorf("perfbench: desim %s: bound_source %q, want exact/expectation/unchecked", tag, dr.BoundSource)
		}
	}
	if dr.Workers < 1 {
		return fmt.Errorf("perfbench: desim %s: workers = %d", tag, dr.Workers)
	}
	if dr.Events == 0 {
		return fmt.Errorf("perfbench: desim %s: empty run", tag)
	}
	if dr.DurationNs <= 0 || dr.EventsPerSec <= 0 {
		return fmt.Errorf("perfbench: desim %s: non-positive duration/throughput", tag)
	}
	if dr.RankBound < -1 || dr.Lookahead < -1 {
		return fmt.Errorf("perfbench: desim %s: rank_bound/lookahead below -1", tag)
	}
	if dr.Lookahead >= 0 {
		if dr.MaxLead < 0 || dr.MeanLead < 0 {
			return fmt.Errorf("perfbench: desim %s: negative lookahead occupancy", tag)
		}
		if float64(dr.MaxLead) < dr.MeanLead {
			return fmt.Errorf("perfbench: desim %s: max_lead %d below mean_lead %g", tag, dr.MaxLead, dr.MeanLead)
		}
	} else if dr.Violations != 0 {
		return fmt.Errorf("perfbench: desim %s: violations reported by an unchecked run", tag)
	}
	if dr.BoundExact && dr.RankBound >= 0 && dr.Lookahead >= dr.RankBound && dr.Violations > 0 {
		return fmt.Errorf("perfbench: desim %s: %d causality violations with lookahead %d >= exact bound %d",
			tag, dr.Violations, dr.Lookahead, dr.RankBound)
	}
	for i, ten := range dr.PerTenant {
		if ten.Tenant != i {
			return fmt.Errorf("perfbench: desim %s: per_tenant[%d] has tenant id %d", tag, i, ten.Tenant)
		}
		if ten.Completed > 0 {
			if ten.P50 == 0 || ten.P99 == 0 || ten.P999 == 0 {
				return fmt.Errorf("perfbench: desim %s: tenant %d: missing sojourn percentiles", tag, i)
			}
			if ten.P50 > ten.P99 || ten.P99 > ten.P999 {
				return fmt.Errorf("perfbench: desim %s: tenant %d: non-monotone sojourn percentiles (p50=%d p99=%d p99.9=%d)",
					tag, i, ten.P50, ten.P99, ten.P999)
			}
		}
	}
	return nil
}

// validateServe checks one serving run's internal consistency — most
// importantly the zero-lost-tasks ledger (ingested = completed + shed):
// a committed trajectory artifact is thereby a machine-checked claim
// that the service dropped nothing it admitted.
func validateServe(sr *ServeResult) error {
	if sr.Scheduler == "" {
		return fmt.Errorf("perfbench: serve result with empty scheduler name")
	}
	if sr.OfferedRatePerSec <= 0 {
		return fmt.Errorf("perfbench: serve %s: non-positive offered rate", sr.Scheduler)
	}
	if sr.Workers < 2 {
		return fmt.Errorf("perfbench: serve %s: workers = %d, want >= 2 (ingest worker + pool)", sr.Scheduler, sr.Workers)
	}
	if sr.MinWorkers < 1 || sr.MinWorkers > sr.Workers-1 {
		return fmt.Errorf("perfbench: serve %s: min_workers = %d outside [1, %d]", sr.Scheduler, sr.MinWorkers, sr.Workers-1)
	}
	if sr.Tenants < 1 {
		return fmt.Errorf("perfbench: serve %s: tenants = %d", sr.Scheduler, sr.Tenants)
	}
	if sr.TenantSkew < 0 {
		return fmt.Errorf("perfbench: serve %s: negative tenant skew", sr.Scheduler)
	}
	if sr.Ingested != sr.Completed+sr.Shed {
		return fmt.Errorf("perfbench: serve %s: LOST TASKS: ingested %d != completed %d + shed %d",
			sr.Scheduler, sr.Ingested, sr.Completed, sr.Shed)
	}
	if sr.Ingested == 0 {
		return fmt.Errorf("perfbench: serve %s: empty run", sr.Scheduler)
	}
	if sr.DurationNs <= 0 || (sr.Completed > 0 && sr.ThroughputTasksPerSec <= 0) {
		return fmt.Errorf("perfbench: serve %s: non-positive duration/throughput", sr.Scheduler)
	}
	if sr.StallNs < 0 {
		return fmt.Errorf("perfbench: serve %s: negative stall time", sr.Scheduler)
	}
	if sr.MeanActiveWorkers < 0 || sr.MeanActiveWorkers > float64(sr.Workers) {
		return fmt.Errorf("perfbench: serve %s: mean_active_workers = %g outside [0, %d]",
			sr.Scheduler, sr.MeanActiveWorkers, sr.Workers)
	}
	if len(sr.PerTenant) != sr.Tenants {
		return fmt.Errorf("perfbench: serve %s: %d per-tenant entries for %d tenants",
			sr.Scheduler, len(sr.PerTenant), sr.Tenants)
	}
	var sumCompleted, sumShed uint64
	for i, ten := range sr.PerTenant {
		if ten.Tenant != i {
			return fmt.Errorf("perfbench: serve %s: per_tenant[%d] has tenant id %d", sr.Scheduler, i, ten.Tenant)
		}
		sumCompleted += ten.Completed
		sumShed += ten.Shed
		if ten.Completed > 0 {
			if ten.P50Ns <= 0 || ten.P99Ns <= 0 || ten.P999Ns <= 0 {
				return fmt.Errorf("perfbench: serve %s: tenant %d: missing latency percentiles", sr.Scheduler, i)
			}
			if ten.P50Ns > ten.P99Ns || ten.P99Ns > ten.P999Ns {
				return fmt.Errorf("perfbench: serve %s: tenant %d: non-monotone latency percentiles (p50=%g p99=%g p99.9=%g)",
					sr.Scheduler, i, ten.P50Ns, ten.P99Ns, ten.P999Ns)
			}
		}
	}
	if sumCompleted != sr.Completed || sumShed != sr.Shed {
		return fmt.Errorf("perfbench: serve %s: per-tenant totals (%d completed, %d shed) do not sum to run totals (%d, %d)",
			sr.Scheduler, sumCompleted, sumShed, sr.Completed, sr.Shed)
	}
	return nil
}

// Marshal renders the report as indented JSON with a trailing newline,
// the exact bytes committed as BENCH_*.json.
func Marshal(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Parse is the inverse of Marshal, used by the schema tests.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	return &r, nil
}
