package serve

import (
	"reflect"
	"slices"
	"testing"
)

// TestConfigKnobsListed lists every settable field of Config and
// LoadConfig, 13 in all. The serve experiment (internal/harness) and the
// repo benchmark set Workers and Tenants of both and the load's Rate,
// Tasks, Skew and Seed. The other five only tests turn: HighWater and
// LowWater are shrunk to reach stall episodes and shedding at test
// sizes; Policy is PolicyShed only in a test (the benchmark names the
// default, PolicyStall); CostMin and CostMax are raised to overload two
// workers and lowered to keep soaks short; and Burst makes the soak's
// queue drain to empty between bursts. A new knob fails this test until
// it is added here, so it shows in review as an edit to this list.
func TestConfigKnobsListed(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{Config{}, []string{"Workers", "Tenants", "HighWater", "LowWater", "Policy"}},
		{LoadConfig{}, []string{"Rate", "Tasks", "Tenants", "Skew", "CostMin", "CostMax", "Burst", "Seed"}},
	} {
		var got []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(tc.cfg)) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%T fields = %v, want %v", tc.cfg, got, tc.want)
		}
	}
}
