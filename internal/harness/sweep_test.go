package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/perfbench"
)

// TestDefaultStealCitesItsSweep holds core.Config's steal defaults to the
// sweep that chose them: every committed W = 2 fig1 fragment under
// results/fig1-w2 must hold the SSSP USA cell of the zero Config's
// (StealProb, StealSize), and over the fragments its median time must
// beat the paper's (1/8, 4) cell's. A default changed without a new
// sweep, or a sweep that stops backing it, fails here.
func TestDefaultStealCitesItsSweep(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "fig1-w2", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fig1 fragments under results/fig1-w2")
	}
	const workload = "SSSP USA"
	def := fig1Label(t, core.Config{}.WithDefaults())
	paper := fig1Label(t, core.Config{StealSize: 4, StealProb: 1.0 / 8})
	times := map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := perfbench.Parse(data)
		if err == nil {
			err = perfbench.Validate(r)
		}
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		found := map[string]bool{}
		for _, e := range r.Experiments {
			if e.Experiment != "fig1" {
				continue
			}
			for _, c := range e.Cells {
				if c.Kind != "measure" || c.Workload != workload || c.Status != perfbench.CellOK ||
					(c.Params != def && c.Params != paper) {
					continue
				}
				times[c.Params] = append(times[c.Params], float64(c.DurationNs))
				found[c.Params] = true
			}
		}
		for _, p := range []string{def, paper} {
			if !found[p] {
				t.Errorf("%s: no %s cell labelled %q", f, workload, p)
			}
		}
	}
	if t.Failed() {
		return
	}
	if d, p := median(times[def]), median(times[paper]); !(d < p) {
		t.Errorf("%s: default %q median %.2f ms does not beat %q's %.2f ms over %d fragments",
			workload, def, d/1e6, paper, p/1e6, len(files))
	}
}

// fig1Label is the fig1 grid's label of the cell that runs c's steal
// knobs; it fails t when the grid has no such cell.
func fig1Label(t *testing.T, c core.Config) string {
	for _, sp := range ablationStealProbs {
		if sp.p == c.StealProb && slices.Contains(ablationStealSizes, c.StealSize) {
			return fmt.Sprintf("psteal=%s,stealSize=%d", sp.label, c.StealSize)
		}
	}
	t.Fatalf("fig1 has no cell for StealProb %g, StealSize %d", c.StealProb, c.StealSize)
	return ""
}

// median is the middle of xs, or the mean of its two middle values.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
