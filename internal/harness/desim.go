package harness

import (
	"fmt"

	"repro/internal/desim"
	"repro/internal/zoo"
)

// planDesim is the discrete-event simulation experiment: a scheduler ×
// model grid through internal/desim, reporting event throughput, the
// safe-lookahead window each scheduler's rank-error bound grants, and
// the causality accounting against that window. It is the paper's
// rank-error theory run in the other direction: instead of measuring
// how relaxed a scheduler is, it asks how much useful parallel work a
// known relaxation bound licenses.
func planDesim(cfg RunConfig) (*Plan, error) {
	var specs []zoo.Spec[desim.Event]
	for _, name := range []string{"coarse", "mq", "smq", "klsm", "obim"} {
		spec, ok := zoo.Lookup[desim.Event](name)
		if !ok {
			return nil, fmt.Errorf("harness: desim: unknown scheduler %q (known: %v)", name, zoo.Names())
		}
		specs = append(specs, spec)
	}
	return desimPlan(cfg, specs), nil
}

// desimPlan enumerates the desim grid over the given schedulers. Every
// cell simulates a fresh model with desim.Run, which refuses a run that
// lost or duplicated events, with the causality window set to the
// scheduler's rank bound (schedulers without one run unchecked); a
// scheduler whose exact bound the window covers must report zero
// violations, or the cell is a CellError. All schedulers of one model
// simulate the same model seed, the seed of the model's first cell, and
// the assembly refuses a grid in which any of them reports another
// checksum than the first: the simulated outcome must not depend on the
// scheduler.
func desimPlan(cfg RunConfig, specs []zoo.Spec[desim.Event]) *Plan {
	p := NewPlan("desim", cfg)
	models := []string{"cluster", "dag"}
	workers := p.Config.MaxThreads
	events := 100_000 * p.Config.Scale
	const clusterStations = 64

	var refs []int
	for _, model := range models {
		seed := CellSeed(p.Config.Seed, len(p.Cells))
		for _, spec := range specs {
			refs = append(refs, p.AddCell(Cell{
				Kind:      "desim",
				Key:       fmt.Sprintf("desim/%s/%s", model, spec.Name),
				Scheduler: spec.Name,
				Params:    "model=" + model,
				Threads:   workers,
			}, func(Cell) (CellResult, error) {
				var m desim.Model
				var err error
				if model == "cluster" {
					m, err = desim.NewCluster(desim.ClusterConfig{
						Stations:           clusterStations,
						ArrivalsPerStation: events / (2 * clusterStations),
						Workers:            workers,
						Seed:               seed,
					})
				} else {
					m, err = desim.NewDAG(desim.DAGConfig{Layers: 64 * p.Config.Scale, Workers: workers, Seed: seed})
				}
				if err != nil {
					return CellResult{}, err
				}
				return desimCell(spec, m, workers, seed)
			}))
		}
	}

	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		t := Table{
			Title: fmt.Sprintf("Discrete-event simulation — scheduler × model (%d workers, window = rank bound)", workers),
			Header: []string{"Model", "Scheduler", "Events", "Events/s", "Bound", "Exact",
				"Violations", "MaxLead", "MeanLead"},
		}
		i := 0
		for _, model := range models {
			var want uint64
			for si, spec := range specs {
				v := rs[refs[i]].Values
				i++
				sum := uint64(v["checksumhi"])<<32 | uint64(v["checksumlo"])
				if si == 0 {
					want = sum
				} else if sum != want {
					return nil, fmt.Errorf("harness: desim/%s: %s checksum %#x diverges from %s's %#x",
						model, spec.Name, sum, specs[0].Name, want)
				}
				bound := "—"
				if v["bound"] >= 0 {
					bound = fmt.Sprint(int64(v["bound"]))
				}
				t.AddRow(model, spec.Name,
					fmt.Sprint(int64(v["events"])), fmt.Sprintf("%.3g", v["eps"]),
					bound, fmt.Sprint(v["exact"] != 0),
					fmt.Sprint(int64(v["violations"])), fmt.Sprint(int64(v["maxlead"])),
					fm(v["meanlead"]))
			}
		}
		return []Table{t}, nil
	})
	return p
}

// desimCell runs model m on the scheduler spec describes, with the
// lookahead window set to the spec's rank bound at this worker count
// (-1, unchecked, when it has none), and refuses a run with causality
// violations under an exact bound.
func desimCell(spec zoo.Spec[desim.Event], m desim.Model, workers int, seed uint64) (CellResult, error) {
	bound, exact := spec.RankBound(workers)
	lookahead := max(bound, -1)
	st, err := desim.Run(spec.Make(workers, seed), m, desim.Config{Workers: workers, Lookahead: lookahead})
	if err != nil {
		return CellResult{}, err
	}
	if exact && bound >= 0 && st.Violations > 0 {
		return CellResult{}, fmt.Errorf("harness: desim/%s/%s: %d causality violations with lookahead %d >= exact bound %d",
			m.Name(), spec.Name, st.Violations, lookahead, bound)
	}
	sum := m.Checksum()
	return CellResult{
		Tasks: st.Events,
		Values: map[string]float64{
			"eps":        float64(st.Events) / st.Duration.Seconds(),
			"events":     float64(st.Events),
			"bound":      float64(bound),
			"exact":      b2f(exact),
			"lookahead":  float64(lookahead),
			"violations": float64(st.Violations),
			"maxlead":    float64(st.MaxLead),
			"meanlead":   st.MeanLead,
			// A float64 holds 53 bits: the checksum travels as two
			// exact 32-bit halves.
			"checksumhi": float64(sum >> 32),
			"checksumlo": float64(uint32(sum)),
		},
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
