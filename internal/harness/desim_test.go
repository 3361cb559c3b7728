package harness

import (
	"strings"
	"testing"

	"repro/internal/desim"
	"repro/internal/mq"
	"repro/internal/zoo"
)

// TestDesimAssembleRefusesDivergingChecksums: every scheduler of one
// model simulates the same system, so a grid in which one cell reports
// another outcome digest than the model's first scheduler must not
// assemble. The two checksums differ only below bit 53, where one
// float64 would round them together.
func TestDesimAssembleRefusesDivergingChecksums(t *testing.T) {
	p, err := planDesim(RunConfig{Threads: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	const sum = uint64(0xfedc_ba98_7654_3210)
	grid := func(diverge int) []CellResult {
		rs := make([]CellResult, len(p.Cells))
		for i, c := range p.Cells {
			s := sum
			if i == diverge {
				s++
			}
			rs[i] = CellResult{Cell: c, Status: CellOK, Values: map[string]float64{
				"events": 1, "eps": 1, "bound": 0, "exact": 1,
				"checksumhi": float64(s >> 32), "checksumlo": float64(uint32(s)),
			}}
		}
		return rs
	}
	if _, err := p.Assemble(grid(-1)); err != nil {
		t.Fatalf("agreeing grid refused: %v", err)
	}
	for _, i := range []int{1, len(p.Cells) - 1} {
		_, err := p.Assemble(grid(i))
		if err == nil || !strings.Contains(err.Error(), "diverges from") {
			t.Errorf("cell %d (%s) diverges: Assemble err = %v, want a checksum divergence", i, p.Cells[i].Key, err)
		}
	}
}

// TestDesimCellRejectsViolationUnderExactBound: a desim cell runs
// through the per-run validator, so a scheduler that claims an exact
// bound its pops break comes back as an error cell. The liar is a
// classic Multi-Queue labelled exact at bound 0; on one worker its pops
// run ahead of the window structurally, not by a race.
func TestDesimCellRejectsViolationUnderExactBound(t *testing.T) {
	liar := zoo.MQ[desim.Event]("liar", mq.Classic(0, 4))
	liar.Bound = func(int) (int64, bool) { return 0, true }
	p := desimPlan(RunConfig{Threads: []int{1}}, []zoo.Spec[desim.Event]{liar})
	res := p.RunCell(0)
	if res.Status != CellError || !strings.Contains(res.Error, "causality violations with lookahead") {
		t.Fatalf("cell %s: status %s, error %q; want an error cell naming the violations", res.Key, res.Status, res.Error)
	}
}
