package harness

import (
	"fmt"
	"time"

	"repro/internal/serve"
)

// planServe is the open-loop serving experiment: an offered-load ×
// scheduler grid through internal/serve, reporting delivered
// throughput, tail sojourn latency, backpressure and elastic-pool
// activity. It extends the paper's closed-loop run-to-completion
// evaluation with the serving shape the schedulers would face in a
// task-queue deployment: the queue drains between bursts, so the run
// exercises the quiescence termination protocol and worker parking
// rather than raw drain throughput.
func planServe(cfg RunConfig) (*Plan, error) {
	p := NewPlan("serve", cfg)
	schedulers := []string{"coarse", "mq", "emq", "smq", "klsm"}
	rates := []float64{25000, 100000, 400000}
	workers := p.Config.MaxThreads + 1 // +1: the ingest worker rides along
	if workers < 2 {
		workers = 2
	}
	tasksPerRate := 20000 * p.Config.Scale

	var refs []int
	for _, name := range schedulers {
		for _, rate := range rates {
			name, rate := name, rate
			refs = append(refs, p.AddCell(Cell{
				Kind:      "serve",
				Key:       fmt.Sprintf("serve/%s/rate=%.0f", name, rate),
				Scheduler: name,
				Params:    fmt.Sprintf("rate=%.0f", rate),
				Threads:   workers,
			}, func(c Cell) (CellResult, error) {
				sr, err := serve.RunOne(name, serve.BenchConfig{
					Rate:    rate,
					Tasks:   tasksPerRate,
					Tenants: 4,
					Skew:    0.99,
					Workers: workers,
					Seed:    c.Seed,
				})
				if err != nil {
					return CellResult{}, err
				}
				t0 := sr.PerTenant[0]
				return CellResult{
					Tasks: uint64(sr.Completed),
					Values: map[string]float64{
						"served":     sr.ThroughputTasksPerSec,
						"completed":  float64(sr.Completed),
						"stalls":     float64(sr.Stalls),
						"parks":      float64(sr.Parks),
						"meanactive": sr.MeanActiveWorkers,
						"t0p50ns":    t0.P50Ns,
						"t0p99ns":    t0.P99Ns,
						"t0p999ns":   t0.P999Ns,
					},
				}, nil
			}))
		}
	}

	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		t := Table{
			Title: fmt.Sprintf("Open-loop serving — offered load × scheduler (%d workers incl. ingest, 4 tenants, Zipf 0.99, PolicyStall)",
				workers),
			Header: []string{"Scheduler", "Offered/s", "Served/s", "Completed", "Stalls", "Parks",
				"MeanActive", "t0 p50", "t0 p99", "t0 p99.9"},
		}
		i := 0
		for _, name := range schedulers {
			for _, rate := range rates {
				v := rs[refs[i]].Values
				i++
				t.AddRow(name, fmt.Sprintf("%.0f", rate),
					fmt.Sprintf("%.0f", v["served"]),
					fmt.Sprint(int64(v["completed"])), fmt.Sprint(int64(v["stalls"])), fmt.Sprint(int64(v["parks"])),
					fm(v["meanactive"]),
					durCell(v["t0p50ns"]), durCell(v["t0p99ns"]), durCell(v["t0p999ns"]))
			}
		}
		return []Table{t}, nil
	})
	return p, nil
}

func durCell(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
