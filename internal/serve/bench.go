package serve

import (
	"fmt"
	"math"
	"time"
)

// ServeResult is one scheduler's open-loop serving run:
// a fixed offered rate of Zipf-skewed tenant traffic with
// bounded-Pareto service costs pushed through internal/serve's
// admission control and elastic worker pool.
type ServeResult struct {
	Scheduler string
	// OfferedRatePerSec is the load generator's target arrival rate.
	OfferedRatePerSec float64
	// Workers is the scheduler's worker-slot count (ingest worker
	// included); MinWorkers is the elastic pool's floor.
	Workers    int
	MinWorkers int
	// Tenants and TenantSkew describe the Zipf tenant mix.
	Tenants    int
	TenantSkew float64
	// Ingested = Completed + Shed is the zero-lost-tasks ledger:
	// validateServe rejects any run where it does not balance.
	Ingested  uint64
	Completed uint64
	Shed      uint64
	// DurationNs covers first arrival to quiescence.
	DurationNs            int64
	ThroughputTasksPerSec float64
	// Stalls / StallNs account backpressure: how often and for how
	// long ingestion was paused at the admission high watermark.
	Stalls  uint64
	StallNs int64
	// Parks / MeanActiveWorkers describe the elastic pool's activity
	// over the run.
	Parks             uint64
	MeanActiveWorkers float64
	// PerTenant is the per-tenant latency/shedding breakdown, indexed
	// by tenant id (tenant 0 = highest priority class).
	PerTenant []TenantServeResult
}

// TenantServeResult is one tenant's slice of a serving run. Latency is
// scheduled-arrival to completion (sojourn: admission + queueing +
// service), from a log-bucketed perfbench.Histogram, so coordinated
// omission cannot hide backpressure stalls.
type TenantServeResult struct {
	Tenant    int
	Completed uint64
	Shed      uint64
	P50Ns     float64
	P99Ns     float64
	P999Ns    float64
}

// validateServe checks one serving run's internal consistency — most
// importantly the zero-lost-tasks ledger (ingested = completed + shed):
// a run that passes is thereby a machine-checked claim that the service
// dropped nothing it admitted. RunOne applies it before returning.
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

// BenchConfig parameterizes one open-loop serving run. Rate, Tasks,
// Tenants, Skew and Seed parameterize the load generator (see
// LoadConfig); Workers and Tenants the Service (see Config).
type BenchConfig struct {
	Rate    float64
	Tasks   int
	Tenants int
	Skew    float64
	Workers int
	Seed    uint64
}

// RunOne serves one open-loop load on the named scheduler and returns
// the run, validated by validateServe before return.
func RunOne(name string, cfg BenchConfig) (ServeResult, error) {
	s, err := Build(name, cfg.Workers, cfg.Seed)
	if err != nil {
		return ServeResult{}, err
	}
	svc, err := New(s, Config{Workers: cfg.Workers, Tenants: cfg.Tenants})
	if err != nil {
		return ServeResult{}, err
	}
	svc.Start()
	loadStart := time.Now()
	_, err = Generate(svc.In(), svc.Epoch(), LoadConfig{
		Rate: cfg.Rate, Tasks: cfg.Tasks, Tenants: cfg.Tenants, Skew: cfg.Skew, Seed: cfg.Seed,
	})
	close(svc.In())
	if err != nil {
		svc.Wait() // drain whatever was sent before the config error
		return ServeResult{}, err
	}
	st := svc.Wait()
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
		MeanActiveWorkers: st.MeanActiveWorkers,
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
	if err := validateServe(&sr); err != nil {
		return ServeResult{}, fmt.Errorf("serve: run fails validation: %w", err)
	}
	return sr, nil
}
