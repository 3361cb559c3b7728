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
		spec, _ := zoo.Lookup[desim.Event](name)
		specs = append(specs, spec)
	}
	return desimPlan(cfg, specs), nil
}

// desimPlan enumerates the desim grid over the given schedulers. Every
// cell runs through desim.RunOne, so a run that breaks a per-run rule
// (zero violations under a covering exact bound among them) comes back
// as a CellError. All schedulers of one model simulate the same model
// seed, the seed of the model's first cell, and the assembly refuses a
// grid in which any of them reports another checksum than the first:
// the simulated outcome must not depend on the scheduler.
func desimPlan(cfg RunConfig, specs []zoo.Spec[desim.Event]) *Plan {
	p := NewPlan("desim", cfg)
	models := []string{"cluster", "dag"}
	workers := p.Config.MaxThreads
	events := 100_000 * p.Config.Scale

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
				dr, err := desim.RunOne(spec, model, desim.BenchConfig{
					Workers: workers,
					Events:  events,
					Layers:  64 * p.Config.Scale,
					Seed:    seed,
				})
				if err != nil {
					return CellResult{}, err
				}
				return CellResult{
					Tasks: dr.Events,
					Values: map[string]float64{
						"eps":        dr.EventsPerSec,
						"events":     float64(dr.Events),
						"bound":      float64(dr.RankBound),
						"exact":      b2f(dr.BoundExact),
						"lookahead":  float64(dr.Lookahead),
						"violations": float64(dr.Violations),
						"maxlead":    float64(dr.MaxLead),
						"meanlead":   dr.MeanLead,
						// A float64 holds 53 bits: the checksum travels
						// as two exact 32-bit halves.
						"checksumhi": float64(dr.Checksum >> 32),
						"checksumlo": float64(uint32(dr.Checksum)),
					},
				}, nil
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

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
