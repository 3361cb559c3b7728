package zoo

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cbpq"
	"repro/internal/coarse"
	"repro/internal/core"
	"repro/internal/klsm"
	"repro/internal/mq"
	"repro/internal/obim"
	"repro/internal/spray"
)

// TestConfigKnobsListed lists every settable field of the seven
// scheduler Config types, 33 in all. Each is set to a non-default value
// by some caller outside the tests — the zoo, the harness, the root
// package, serve, desim or the repo benchmark — except three that only
// tests set: obim.AdaptInterval, obim.PruneBags and cbpq.ChunkCap. Their
// own packages' tests shrink them to reach adaptation, bag pruning and
// chunk splits at test sizes, which the defaults do not. A new knob
// fails this test until it is added here, so it shows in review as an
// edit to this list.
func TestConfigKnobsListed(t *testing.T) {
	want := map[string][]string{
		"core":   {"Workers", "StealSize", "StealProb", "Seed", "NUMANodes", "NUMAWeightK"},
		"mq":     {"Workers", "C", "Insert", "Delete", "PInsertChange", "PDeleteChange", "BatchInsert", "BatchDelete", "HeapArity", "PeekTops", "Stickiness", "Seed", "NUMANodes", "NUMAWeightK"},
		"obim":   {"Workers", "Delta", "ChunkSize", "Adaptive", "AdaptInterval", "PruneBags"},
		"klsm":   {"Workers", "Relaxation"},
		"cbpq":   {"Workers", "ChunkCap"},
		"spray":  {"Workers", "Seed"},
		"coarse": {"Workers"},
	}
	configs := map[string]any{
		"core": core.Config{}, "mq": mq.Config{}, "obim": obim.Config{}, "klsm": klsm.Config{},
		"cbpq": cbpq.Config{}, "spray": spray.Config{}, "coarse": coarse.Config{},
	}
	total := 0
	for name, cfg := range configs {
		var got []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(cfg)) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, want[name]) {
			t.Errorf("%s.Config fields = %v, want %v", name, got, want[name])
		}
		total += len(got)
	}
	if total != 33 {
		t.Errorf("%d settable fields across the scheduler Configs, want 33", total)
	}
}
