package harness

import (
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/zoo"
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
				return serveCell(name, rate, tasksPerRate, workers, c.Seed)
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

// serveCell serves one open-loop load of tasks requests at rate on the
// named scheduler, 4 tenants at Zipf 0.99 under PolicyStall, and checks
// the run's ledger: nothing is shed under PolicyStall, so every request
// sent must have completed.
func serveCell(name string, rate float64, tasks, workers int, seed uint64) (CellResult, error) {
	spec, ok := zoo.Lookup[serve.Request](name)
	if !ok {
		return CellResult{}, fmt.Errorf("harness: serve: unknown scheduler %q (known: %v)", name, zoo.Names())
	}
	svc, err := serve.New(spec.Make(workers, seed), serve.Config{Workers: workers, Tenants: 4})
	if err != nil {
		return CellResult{}, err
	}
	svc.Start()
	_, err = serve.Generate(svc.In(), svc.Epoch(), serve.LoadConfig{
		Rate: rate, Tasks: tasks, Tenants: 4, Skew: 0.99, Seed: seed,
	})
	close(svc.In())
	st := svc.Wait()
	if err != nil {
		return CellResult{}, err
	}
	if err := st.CheckLedger(); err != nil {
		return CellResult{}, err
	}
	if st.Shed != 0 || st.Completed != uint64(tasks) {
		return CellResult{}, fmt.Errorf("harness: serve/%s: %d of %d requests completed, %d shed under PolicyStall",
			name, st.Completed, tasks, st.Shed)
	}
	t0 := &st.PerTenant[0].Latency
	return CellResult{
		Tasks: st.Completed,
		Values: map[string]float64{
			"served":     float64(st.Completed) / st.Duration.Seconds(),
			"completed":  float64(st.Completed),
			"stalls":     float64(st.Stalls),
			"parks":      float64(st.Parks),
			"meanactive": st.MeanActiveWorkers,
			"t0p50ns":    float64(t0.Quantile(0.50)),
			"t0p99ns":    float64(t0.Quantile(0.99)),
			"t0p999ns":   float64(t0.Quantile(0.999)),
		},
	}, nil
}

func durCell(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
