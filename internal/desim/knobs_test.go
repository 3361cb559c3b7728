package desim

import (
	"reflect"
	"slices"
	"testing"
)

// TestConfigKnobsListed lists every settable field of Config,
// ClusterConfig and DAGConfig, 10 in all. The desim experiment
// (internal/harness) sets all of them but DAGConfig.Width, which only
// tests set: they shrink the DAG's 256-task layers to 64 for small runs.
// (Stations the experiment sets to its default, 64; tests shrink it to 16
// and 8 for the same reason.) A new knob fails this test until it is
// added here, so it shows in review as an edit to this list.
func TestConfigKnobsListed(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{Config{}, []string{"Workers", "Lookahead"}},
		{ClusterConfig{}, []string{"Stations", "ArrivalsPerStation", "Workers", "Seed"}},
		{DAGConfig{}, []string{"Layers", "Width", "Workers", "Seed"}},
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
