package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/perfbench"
)

// BenchReport is the serve artifact written by `smqserve -json`: the
// perfbench header plus one open-loop serving run per scheduler.
type BenchReport struct {
	perfbench.Header
	Serve []ServeResult `json:"serve"`
}

// ServeResult is one scheduler's open-loop serving run:
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
	// ValidateBench rejects any run where it does not balance.
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
// service), from a log-bucketed perfbench.Histogram, so coordinated
// omission cannot hide backpressure stalls.
type TenantServeResult struct {
	Tenant    int     `json:"tenant"`
	Completed uint64  `json:"completed"`
	Shed      uint64  `json:"shed"`
	P50Ns     float64 `json:"latency_p50_ns"`
	P99Ns     float64 `json:"latency_p99_ns"`
	P999Ns    float64 `json:"latency_p999_ns"`
}

// ValidateBench checks a serve artifact against the schema contract:
// the header, every run's internal consistency, and one run per
// scheduler. RunBench applies it before returning and cmd/benchcheck to
// the bytes on disk.
func ValidateBench(r *BenchReport) error {
	if err := r.Header.Validate(); err != nil {
		return err
	}
	if len(r.Serve) == 0 {
		return fmt.Errorf("perfbench: no serve results")
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
	if !(sr.OfferedRatePerSec > 0) || math.IsInf(sr.OfferedRatePerSec, 0) {
		return fmt.Errorf("perfbench: serve %s: offered rate %g", sr.Scheduler, sr.OfferedRatePerSec)
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
	if !(sr.TenantSkew >= 0) || math.IsInf(sr.TenantSkew, 0) {
		return fmt.Errorf("perfbench: serve %s: tenant skew %g", sr.Scheduler, sr.TenantSkew)
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

// BenchConfig parameterizes a serving run: one open-loop service run
// per scheduler, reported as a BenchReport.
type BenchConfig struct {
	// Schedulers names the lineup subset to run; empty means Lineup().
	Schedulers []string
	// Rate / Tasks / Tenants / Skew / Burst / cost knobs parameterize
	// the load generator (see LoadConfig). Zeros take LoadConfig
	// defaults, except Rate (100000/s) and Tasks (200000).
	Rate                        float64
	Tasks                       int
	Tenants                     int
	Skew                        float64
	Burst                       int
	CostMin, CostMax, CostAlpha float64
	// Workers / MinWorkers / watermarks / Policy parameterize the
	// Service (see Config). Workers 0 means 4.
	Workers    int
	MinWorkers int
	HighWater  int64
	LowWater   int64
	Policy     Policy
	// IdleWindow, when positive, measures the service's idle CPU
	// fraction over that window (service up, zero offered load) before
	// the load starts. Zero skips the measurement (-1 in the report).
	IdleWindow time.Duration
	Seed       uint64
	// GeneratedBy labels the report ("smqserve", "harness serve").
	GeneratedBy string
}

func (c *BenchConfig) normalize() {
	if len(c.Schedulers) == 0 {
		c.Schedulers = Lineup()
	}
	if c.Rate == 0 {
		c.Rate = 100000
	}
	if c.Tasks == 0 {
		c.Tasks = 200000
	}
	if c.Tenants == 0 {
		c.Tenants = 2
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.GeneratedBy == "" {
		c.GeneratedBy = "serve.RunBench"
	}
}

// MeasureIdleCPU runs the process for window and returns the CPU
// fraction it consumed (CPU-seconds per wall-second), or -1 when the
// platform cannot measure it. Call with the service started and no
// load offered: the result is what the idle service costs.
func MeasureIdleCPU(window time.Duration) float64 {
	before, ok := processCPU()
	if !ok {
		return -1
	}
	start := time.Now()
	time.Sleep(window)
	after, _ := processCPU()
	wall := time.Since(start)
	if wall <= 0 {
		return -1
	}
	return float64(after-before) / float64(wall)
}

// RunBench runs one open-loop service per configured scheduler and
// assembles the serve report (validated before return).
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	cfg.normalize()
	report := &BenchReport{Header: perfbench.NewHeader(cfg.GeneratedBy)}
	report.Seed = cfg.Seed
	for _, name := range cfg.Schedulers {
		sr, err := runOne(name, cfg)
		if err != nil {
			return nil, err
		}
		report.Serve = append(report.Serve, sr)
	}
	if err := ValidateBench(report); err != nil {
		return nil, fmt.Errorf("serve: generated report fails validation: %w", err)
	}
	return report, nil
}

func runOne(name string, cfg BenchConfig) (ServeResult, error) {
	s, err := Build(name, cfg.Workers, cfg.Seed)
	if err != nil {
		return ServeResult{}, err
	}
	svc, err := New(s, Config{
		Workers:    cfg.Workers,
		MinWorkers: cfg.MinWorkers,
		Tenants:    cfg.Tenants,
		HighWater:  cfg.HighWater,
		LowWater:   cfg.LowWater,
		Policy:     cfg.Policy,
	})
	if err != nil {
		return ServeResult{}, err
	}
	svc.Start()
	idle := -1.0
	if cfg.IdleWindow > 0 {
		idle = MeasureIdleCPU(cfg.IdleWindow)
	}
	loadStart := time.Now()
	_, err = Generate(svc.In(), svc.Epoch(), LoadConfig{
		Rate: cfg.Rate, Tasks: cfg.Tasks, Tenants: cfg.Tenants, Skew: cfg.Skew,
		Burst: cfg.Burst, CostMin: cfg.CostMin, CostMax: cfg.CostMax,
		CostAlpha: cfg.CostAlpha, Seed: cfg.Seed,
	})
	close(svc.In())
	if err != nil {
		svc.Wait() // drain whatever was sent before the config error
		return ServeResult{}, err
	}
	st := svc.Wait()
	// The measured window is load start to quiescence, excluding the
	// idle window, so throughput is honest about the loaded phase.
	dur := time.Since(loadStart)
	sv := svc.cfg // normalized
	sr := ServeResult{
		Scheduler:         name,
		OfferedRatePerSec: cfg.Rate,
		Workers:           sv.Workers,
		MinWorkers:        sv.MinWorkers,
		Tenants:           sv.Tenants,
		TenantSkew:        cfg.Skew,
		Ingested:          st.Ingested,
		Completed:         st.Completed,
		Shed:              st.Shed,
		DurationNs:        dur.Nanoseconds(),
		Stalls:            st.Stalls,
		StallNs:           st.StallDur.Nanoseconds(),
		Parks:             st.Parks,
		Unparks:           st.Unparks,
		MeanActiveWorkers: st.MeanActiveWorkers,
		IdleCPUFrac:       idle,
	}
	if dur > 0 {
		sr.ThroughputTasksPerSec = float64(st.Completed) / dur.Seconds()
	}
	for t := range st.PerTenant {
		ts := &st.PerTenant[t]
		sr.PerTenant = append(sr.PerTenant, TenantServeResult{
			Tenant:    t,
			Completed: ts.Completed,
			Shed:      ts.Shed,
			P50Ns:     float64(ts.Latency.Quantile(0.50)),
			P99Ns:     float64(ts.Latency.Quantile(0.99)),
			P999Ns:    float64(ts.Latency.Quantile(0.999)),
		})
	}
	return sr, nil
}
