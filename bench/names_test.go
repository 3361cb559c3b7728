package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json, which the
// driver reads, in step with the registry, which -list prints and the
// runs report from.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if n := len(file.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d registered, 2 to 8 allowed", n, len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%d-character why), the registry %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metric, limit int, bounded bool) {
		t.Helper()
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d registered, at most %d allowed", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better() || !unit.MatchString(g.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the registry %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better())
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v registered", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd(), 16, true)
	compare("per_layer", file.PerLayer, perLayer(), 128, false)
}
