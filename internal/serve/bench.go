package serve

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/perfbench"
)

// BenchConfig parameterizes a serving-trajectory run: one open-loop
// service run per scheduler, reported as the serve section of a
// schema-versioned perfbench report.
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
// assembles the serving trajectory report (validated before return).
func RunBench(cfg BenchConfig) (*perfbench.Report, error) {
	cfg.normalize()
	report := &perfbench.Report{
		SchemaVersion: perfbench.SchemaVersion,
		GeneratedBy:   cfg.GeneratedBy,
		Host:          perfbench.CollectHost(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          cfg.Seed,
	}
	for _, name := range cfg.Schedulers {
		sr, err := runOne(name, cfg)
		if err != nil {
			return nil, err
		}
		report.Serve = append(report.Serve, sr)
	}
	if err := perfbench.Validate(report); err != nil {
		return nil, fmt.Errorf("serve: generated report fails validation: %w", err)
	}
	return report, nil
}

func runOne(name string, cfg BenchConfig) (perfbench.ServeResult, error) {
	s, err := Build(name, cfg.Workers, cfg.Seed)
	if err != nil {
		return perfbench.ServeResult{}, err
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
		return perfbench.ServeResult{}, err
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
		return perfbench.ServeResult{}, err
	}
	st := svc.Wait()
	// The measured window is load start to quiescence, excluding the
	// idle window, so throughput is honest about the loaded phase.
	dur := time.Since(loadStart)
	sv := svc.cfg // normalized
	sr := perfbench.ServeResult{
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
		sr.PerTenant = append(sr.PerTenant, perfbench.TenantServeResult{
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
