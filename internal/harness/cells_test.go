package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfbench"
)

// enumHash canonically hashes a cell enumeration: any change to the
// order, keys, kinds, threads, reps or derived seeds changes the hash.
func enumHash(cells []Cell) (int, string) {
	h := fnv.New64a()
	for _, c := range cells {
		fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s|%d|%d|%d\n",
			c.Index, c.Key, c.Kind, c.Workload, c.Scheduler, c.Params, c.Threads, c.Reps, c.Seed)
	}
	return len(cells), fmt.Sprintf("%016x", h.Sum64())
}

// goldenCfg is the fixed configuration the enumeration goldens pin.
var goldenCfg = RunConfig{Scale: 1, Threads: []int{1, 2}, MaxThreads: 2, Reps: 2, Seed: 42}

// goldenEnum pins every experiment's cell enumeration under goldenCfg.
// These values are a contract between the binary that writes a fragment
// and the one that assembles it: two binaries that disagree on them
// would assemble fragments of different grids. If you
// deliberately change an experiment's cell list, run the test once and
// paste the new entries it suggests.
var goldenEnum = map[string]struct {
	cells int
	hash  string
}{
	"table1":    {cells: 4, hash: "401eae429f7ef278"},
	"table2":    {cells: 96, hash: "92a853654ab349f2"},
	"fig1":      {cells: 148, hash: "9436206c53f09ad8"},
	"fig19":     {cells: 148, hash: "98431473267861e4"},
	"fig2":      {cells: 288, hash: "c639be37dda1dc7b"},
	"fig3":      {cells: 208, hash: "32b90509e8e49c03"},
	"fig7":      {cells: 148, hash: "9114c7069be76baa"},
	"fig9":      {cells: 124, hash: "9d5442016c15a37d"},
	"fig11":     {cells: 124, hash: "9a01a6055a0eea8f"},
	"fig13":     {cells: 104, hash: "4049f6b41ad27825"},
	"fig15":     {cells: 20, hash: "75c0d950882b85a9"},
	"emq":       {cells: 68, hash: "962995e3aa083c82"},
	"klsm":      {cells: 24, hash: "ef3d06ec71668f3a"},
	"geom":      {cells: 72, hash: "2763b022717707da"},
	"numa":      {cells: 124, hash: "a806e9697b5d44cf"},
	"serve":     {cells: 15, hash: "9818131c5544fa79"},
	"desim":     {cells: 10, hash: "af94559d8d2b4efe"},
	"theory":    {cells: 26, hash: "ae60b34c87d6154d"},
	"rankprobe": {cells: 26, hash: "2f0d1baf20a01169"},
}

func TestCellEnumerationGolden(t *testing.T) {
	for _, e := range Registry() {
		cells, err := e.Cells(goldenCfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		n, h := enumHash(cells)
		want, ok := goldenEnum[e.ID]
		if !ok {
			t.Errorf("%s: no golden entry; add {cells: %d, hash: %q}", e.ID, n, h)
			continue
		}
		if n != want.cells || h != want.hash {
			t.Errorf("%s: enumeration drifted: got %d cells hash %s, golden %d cells hash %s",
				e.ID, n, h, want.cells, want.hash)
		}
	}
}

// TestCellEnumerationDeterministic checks the enumeration is a pure
// function of the config: two independent Plan builds agree cell by
// cell, and a different base seed changes only the derived seeds.
func TestCellEnumerationDeterministic(t *testing.T) {
	for _, e := range Registry() {
		a, err := e.Cells(goldenCfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b, err := e.Cells(goldenCfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		_, ha := enumHash(a)
		_, hb := enumHash(b)
		if ha != hb {
			t.Errorf("%s: two enumerations of the same config differ", e.ID)
		}

		cfg2 := goldenCfg
		cfg2.Seed = 43
		c, err := e.Cells(cfg2)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(c) != len(a) {
			t.Errorf("%s: base seed changed the cell count (%d vs %d)", e.ID, len(c), len(a))
			continue
		}
		for i := range a {
			ac, cc := a[i], c[i]
			ac.Seed, cc.Seed = 0, 0
			if ac != cc {
				t.Errorf("%s: cell %d differs beyond the seed under a new base seed", e.ID, i)
				break
			}
		}
	}
}

func TestCellSeedProperties(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := CellSeed(42, i)
		if s == 0 {
			t.Fatalf("CellSeed(42, %d) = 0", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("CellSeed collision: indices %d and %d", prev, i)
		}
		seen[s] = i
	}
	if CellSeed(1, 7) == CellSeed(2, 7) {
		t.Fatal("base seed does not separate streams")
	}
	if CellSeed(1, 7) != CellSeed(1, 7) {
		t.Fatal("CellSeed not deterministic")
	}
}

// TestPlanErrorCellDoesNotWedgeOthers: an error cell, unlike a timeout,
// lets the cells after it run, with or without a cell budget.
func TestPlanErrorCellDoesNotWedgeOthers(t *testing.T) {
	p := NewPlan("toy", RunConfig{})
	p.AddCell(Cell{Key: "good"}, func(Cell) (CellResult, error) {
		return CellResult{Tasks: 1}, nil
	})
	p.AddCell(Cell{Key: "bad"}, func(Cell) (CellResult, error) {
		return CellResult{}, fmt.Errorf("boom")
	})
	p.AddCell(Cell{Key: "alsogood"}, func(Cell) (CellResult, error) {
		return CellResult{Tasks: 2}, nil
	})
	for _, timeout := range []time.Duration{0, time.Minute} {
		rs := p.RunAll(timeout)
		if rs[0].Status != CellOK || rs[2].Status != CellOK || rs[2].Tasks != 2 {
			t.Fatalf("timeout %v: good cells disturbed by the bad one: %+v", timeout, rs)
		}
		if rs[1].Status != CellError || rs[1].Error != "boom" {
			t.Fatalf("timeout %v: bad cell not reported: %+v", timeout, rs[1])
		}
		if _, err := p.Assemble(rs); err == nil {
			t.Fatal("Assemble accepted a failed cell")
		}
	}
}

func TestAssembleRejectsPartialResults(t *testing.T) {
	p := NewPlan("toy", RunConfig{})
	p.AddCell(Cell{Key: "a"}, func(Cell) (CellResult, error) { return CellResult{}, nil })
	p.AddCell(Cell{Key: "b"}, func(Cell) (CellResult, error) { return CellResult{}, nil })
	p.SetAssemble(func([]CellResult) ([]Table, error) { return nil, nil })
	rs := p.RunAll(0)
	if _, err := p.Assemble(rs[:1]); err == nil {
		t.Fatal("Assemble accepted a partial result set")
	}
	rs[0], rs[1] = rs[1], rs[0]
	if _, err := p.Assemble(rs); err == nil {
		t.Fatal("Assemble accepted out-of-order results")
	}
}

func TestDuplicateCellKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate key did not panic")
		}
	}()
	p := NewPlan("toy", RunConfig{})
	run := func(Cell) (CellResult, error) { return CellResult{}, nil }
	p.AddCell(Cell{Key: "x"}, run)
	p.AddCell(Cell{Key: "x"}, run)
}

// TestCellReproducibleAcrossPaths is the per-cell seed satellite: the
// same cell run through two independently built plans (as two processes
// would build them) produces identical non-timing results — at one
// thread the seeded schedulers are fully deterministic.
func TestCellReproducibleAcrossPaths(t *testing.T) {
	cfg := RunConfig{Scale: 1, MaxThreads: 1, Reps: 1, Seed: 9, Validate: true}
	e := mustFind(t, "fig1")
	p1, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an smq measurement cell (index > baselines).
	idx := -1
	for _, c := range p1.Cells {
		if c.Kind == "measure" && c.Scheduler == "smq" {
			idx = c.Index
			break
		}
	}
	if idx < 0 {
		t.Fatal("no smq cell in fig1")
	}
	r1 := p1.RunCell(idx)
	r2 := p2.RunCell(idx)
	if r1.Status != CellOK || r2.Status != CellOK {
		t.Fatalf("cells not ok: %q %q", r1.Error, r2.Error)
	}
	if r1.Seed != r2.Seed || r1.Key != r2.Key {
		t.Fatalf("cell identity differs: %+v vs %+v", r1.Cell, r2.Cell)
	}
	if r1.Tasks != r2.Tasks || r1.Wasted != r2.Wasted {
		t.Fatalf("seeded cell not reproducible: tasks %d/%d wasted %d/%d",
			r1.Tasks, r2.Tasks, r1.Wasted, r2.Wasted)
	}
}

// TestTheoryRowsReproducible checks a full experiment whose tables
// carry no timing fields renders byte-identically across two runs —
// the property TestTheoryFragmentRoundTrip builds on.
func TestTheoryRowsReproducible(t *testing.T) {
	e := mustFind(t, "theory")
	cfg := RunConfig{Scale: 1, Seed: 5}
	t1, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Fatal("theory tables differ across identically seeded runs")
	}
}

// TestTimeoutStopsLaterCells: a cell that exceeds its budget is left
// running, so no later cell may run beside it. Each is recorded as an
// error that names the stray cell, and the fragment still validates.
// (TestPlanErrorCellDoesNotWedgeOthers is the contrast: errors do not
// stop the run.)
func TestTimeoutStopsLaterCells(t *testing.T) {
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	var ran atomic.Bool
	p := NewPlan("toy", RunConfig{})
	p.AddCell(Cell{Key: "hang"}, func(Cell) (CellResult, error) {
		<-hang
		return CellResult{}, nil
	})
	p.AddCell(Cell{Key: "after"}, func(Cell) (CellResult, error) {
		ran.Store(true)
		return CellResult{}, nil
	})
	rs := p.RunAll(50 * time.Millisecond)
	if len(rs) != 2 || rs[0].Status != CellTimeout || rs[0].Error == "" {
		t.Fatalf("hung cell not recorded as a timeout: %+v", rs)
	}
	if ran.Load() {
		t.Fatal("a cell ran beside the timed-out one")
	}
	if rs[1].Index != 1 || rs[1].Status != CellError ||
		rs[1].Error != "not run: cell 0 timed out and may still be running" {
		t.Fatalf("cell after the timeout: %+v", rs[1])
	}
	if err := perfbench.Validate(p.Fragment(rs, "test")); err != nil {
		t.Fatalf("fragment of a timed-out run fails validation: %v", err)
	}
}

// toyPlan builds a plan of one cell per key whose assembly renders one
// table.
func toyPlan(cfg RunConfig, keys ...string) *Plan {
	p := NewPlan("toy", cfg)
	for i, k := range keys {
		tasks := uint64(i + 1)
		p.AddCell(Cell{Key: k}, func(Cell) (CellResult, error) {
			return CellResult{Tasks: tasks}, nil
		})
	}
	p.SetAssemble(func(rs []CellResult) ([]Table, error) {
		t := Table{Title: "toy", Header: []string{"key", "tasks"}}
		for _, r := range rs {
			t.AddRow(r.Key, fmt.Sprint(r.Tasks))
		}
		return []Table{t}, nil
	})
	return p
}

// TestFragmentHeader pins the header a run stamps on its fragment: it
// must validate, and record the GOMAXPROCS the cells ran under
// (hand-filled headers once left it 0) and the plan's seed (once always
// 0).
func TestFragmentHeader(t *testing.T) {
	for _, tc := range []struct{ cfg, want uint64 }{{0, 1}, {21, 21}} {
		p := toyPlan(RunConfig{Seed: tc.cfg}, "a", "b")
		rep := p.Fragment(p.RunAll(0), "test")
		if err := perfbench.Validate(rep); err != nil {
			t.Fatalf("fragment fails validation: %v", err)
		}
		if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
			t.Fatalf("fragment gomaxprocs = %d, want %d", rep.GOMAXPROCS, runtime.GOMAXPROCS(0))
		}
		// The header records the plan's normalized seed (0 becomes 1).
		if rep.Seed != tc.want {
			t.Errorf("config seed %d: fragment seed = %d, want %d", tc.cfg, rep.Seed, tc.want)
		}
	}
}

// TestAssembleFragmentRejectsDrift: a fragment renders only through a
// plan that enumerates the same grid — same experiment and config, same
// cell count, same key at every index.
func TestAssembleFragmentRejectsDrift(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	p := toyPlan(cfg, "a", "b")
	rep := p.Fragment(p.RunAll(0), "test")
	if _, err := p.AssembleFragment(rep); err != nil {
		t.Fatalf("own fragment rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		plan *Plan
		want string
	}{
		{"other config", toyPlan(RunConfig{Seed: 2}, "a", "b"), "no fragment for toy"},
		{"wrong cell count", toyPlan(cfg, "a", "b", "c"), "fragment has 2 cells, plan enumerates 3"},
		{"key mismatch", toyPlan(cfg, "a", "renamed"), "cell 1 key mismatch"},
	} {
		_, err := tc.plan.AssembleFragment(rep)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestTheoryFragmentRoundTrip: the theory grid (pure simulation, no
// timing fields) run by a plan, written as a fragment, read back,
// validated and assembled by a second plan renders byte-identical TSV
// to the in-process Experiment.Run.
func TestTheoryFragmentRoundTrip(t *testing.T) {
	e := mustFind(t, "theory")
	cfg := RunConfig{Scale: 1, Seed: 21}
	tsv := func(tables []Table, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteTables(&b, tables, "tsv"); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	direct := tsv(e.Run(cfg))

	writer, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := perfbench.Marshal(writer.Fragment(writer.RunAll(0), "test"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := perfbench.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := perfbench.Validate(rep); err != nil {
		t.Fatal(err)
	}
	reader, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tsv(reader.AssembleFragment(rep)); !bytes.Equal(got, direct) {
		t.Fatalf("round-tripped TSV differs from the direct run:\n--- direct ---\n%s\n--- fragment ---\n%s", direct, got)
	}
}
