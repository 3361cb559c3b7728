// Command smqserve runs the open-loop priority-task service of
// internal/serve: a fixed-rate stream of Zipf-skewed tenant traffic
// with bounded-Pareto service costs, pushed through a scheduler's
// admission control and elastic worker pool until the stream closes
// and the service quiesces.
//
// Usage:
//
//	smqserve -schedulers smq -rate 300000 -tasks 1200000 -tenants 4
//	smqserve -schedulers coarse,mq,emq,smq,klsm -json serve.json
//	smqserve -rate 800000 -tasks 400000 -policy shed -high 4096 -low 1024
//
// Each run prints a human summary — completions, sheds, backpressure
// stalls, elastic-pool activity, idle-service CPU and per-tenant
// p50/p99/p99.9 sojourn latency (scheduled arrival to completion) —
// and -json additionally writes the schema-versioned serve report
// (serve.BenchReport) that CI validates with cmd/benchcheck.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/perfbench"
	"repro/internal/serve"
)

func main() {
	var (
		schedulers = flag.String("schedulers", "smq", "comma-separated scheduler lineup subset, or 'all'")
		rate       = flag.Float64("rate", 300000, "offered arrival rate, tasks/sec")
		tasks      = flag.Int("tasks", 1200000, "total offered tasks")
		tenants    = flag.Int("tenants", 4, "tenant traffic classes")
		skew       = flag.Float64("skew", 0.99, "Zipf skew across tenants (0 = uniform)")
		burst      = flag.Int("burst", 1, "arrivals per burst (1 = smooth)")
		workers    = flag.Int("workers", 4, "scheduler worker slots (ingest worker included)")
		minWorkers = flag.Int("minworkers", 1, "elastic pool floor")
		high       = flag.Int64("high", 0, "admission high watermark on pending tasks (0 = default 65536)")
		low        = flag.Int64("low", 0, "admission low watermark (0 = high/2)")
		policy     = flag.String("policy", "stall", "admission policy above the high watermark: stall or shed")
		costMin    = flag.Float64("costmin", 0, "bounded-Pareto service cost minimum, spin units (0 = default 50)")
		costMax    = flag.Float64("costmax", 0, "bounded-Pareto service cost maximum (0 = default 2000)")
		costAlpha  = flag.Float64("costalpha", 0, "bounded-Pareto tail exponent (0 = default 1.1)")
		idleWin    = flag.Duration("idlewindow", 250*time.Millisecond, "idle-CPU measurement window before load (0 = skip)")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		jsonOut    = flag.String("json", "", "also write the schema-versioned serve report to this path ('-' for stdout)")
	)
	flag.Parse()

	var names []string
	if *schedulers == "all" {
		names = serve.Lineup()
	} else {
		for _, s := range strings.Split(*schedulers, ",") {
			if s = strings.TrimSpace(s); s != "" {
				names = append(names, s)
			}
		}
	}
	var pol serve.Policy
	switch *policy {
	case "stall":
		pol = serve.PolicyStall
	case "shed":
		pol = serve.PolicyShed
	default:
		fatal(fmt.Errorf("unknown -policy %q (stall or shed)", *policy))
	}

	cfg := serve.BenchConfig{
		Schedulers: names,
		Rate:       *rate,
		Tasks:      *tasks,
		Tenants:    *tenants,
		Skew:       *skew,
		Burst:      *burst,
		CostMin:    *costMin,
		CostMax:    *costMax,
		CostAlpha:  *costAlpha,
		Workers:    *workers,
		MinWorkers: *minWorkers,
		HighWater:  *high,
		LowWater:   *low,
		Policy:     pol,
		IdleWindow: *idleWin,
		Seed:       *seed,
		GeneratedBy: fmt.Sprintf("smqserve -rate %g -tasks %d -tenants %d -skew %g -workers %d -policy %s",
			*rate, *tasks, *tenants, *skew, *workers, *policy),
	}
	start := time.Now()
	report, err := serve.RunBench(cfg)
	if err != nil {
		fatal(err)
	}
	for i := range report.Serve {
		printRun(&report.Serve[i])
	}
	fmt.Fprintf(os.Stderr, "done %d schedulers in %v\n", len(report.Serve), time.Since(start).Round(time.Millisecond))

	if *jsonOut != "" {
		data, err := perfbench.Marshal(report)
		if err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

func printRun(sr *serve.ServeResult) {
	fmt.Printf("%-8s  offered %.0f/s  served %.0f/s  completed %d  shed %d  stalls %d (%.1fms)  parks %d  meanActive %.2f/%d",
		sr.Scheduler, sr.OfferedRatePerSec, sr.ThroughputTasksPerSec,
		sr.Completed, sr.Shed, sr.Stalls, float64(sr.StallNs)/1e6,
		sr.Parks, sr.MeanActiveWorkers, sr.Workers)
	if sr.IdleCPUFrac >= 0 {
		fmt.Printf("  idleCPU %.1f%%", sr.IdleCPUFrac*100)
	}
	fmt.Println()
	for _, ts := range sr.PerTenant {
		fmt.Printf("  tenant %d: completed %-8d shed %-6d p50 %s  p99 %s  p99.9 %s\n",
			ts.Tenant, ts.Completed, ts.Shed,
			ns(ts.P50Ns), ns(ts.P99Ns), ns(ts.P999Ns))
	}
}

func ns(v float64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smqserve:", err)
	os.Exit(1)
}
