package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algos"
)

func TestStandardWorkloadsShape(t *testing.T) {
	ws := StandardWorkloads(1)
	if len(ws) != 12 {
		t.Fatalf("expected the paper's 12 benchmarks, got %d", len(ws))
	}
	counts := map[AlgoKind]int{}
	for _, w := range ws {
		counts[w.Algo]++
	}
	if counts[AlgoSSSP] != 4 || counts[AlgoBFS] != 4 || counts[AlgoAStar] != 2 || counts[AlgoMST] != 2 {
		t.Fatalf("benchmark mix wrong: %v", counts)
	}
}

func TestWorkloadRunAndValidate(t *testing.T) {
	for _, w := range QuickWorkloads(1) {
		spec := registered("smq")
		res, err := w.Run(spec.Make(2, 0), true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Tasks == 0 {
			t.Fatalf("%s: no tasks", w.Name)
		}
	}
}

func TestSeqBaselineCached(t *testing.T) {
	w := QuickWorkloads(1)[0]
	t1, d1 := w.SeqBaseline()
	t2, d2 := w.SeqBaseline()
	if t1 != t2 || d1 != d2 {
		t.Fatal("baseline not cached")
	}
	if t1 == 0 || d1 <= 0 {
		t.Fatalf("degenerate baseline: %d %v", t1, d1)
	}
}

func TestMeasureRepeatsKeepBest(t *testing.T) {
	w := QuickWorkloads(1)[0]
	m, err := MeasureSeeded(w, registered("smq"), 2, 2, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.DurationNs <= 0 || m.Tasks == 0 {
		t.Fatalf("bad measurement: %+v", m)
	}

	// The repetition loop itself: every rep runs on its own derived seed
	// and the fastest one is kept.
	durs := []time.Duration{3, 1, 2}
	var seeds []uint64
	best, err := bestOf(len(durs), 7, func(seed uint64) (algos.Result, error) {
		seeds = append(seeds, seed)
		return algos.Result{Duration: durs[len(seeds)-1], Tasks: uint64(len(seeds))}, nil
	})
	if err != nil || best.Tasks != 2 {
		t.Fatalf("bestOf kept rep %d (err %v), want the fastest, rep 2", best.Tasks, err)
	}
	if want := []uint64{7, repSeed(7, 1), repSeed(7, 2)}; !slices.Equal(seeds, want) {
		t.Fatalf("rep seeds = %v, want %v", seeds, want)
	}
}

func mustFind(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

func TestRegistryCoversPaperArtifacts(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Paper == "" || e.plan == nil {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig7", "fig9", "fig11", "fig13", "fig15", "fig19", "emq", "klsm", "numa", "theory", "geom", "rankprobe"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig2"); !ok {
		t.Fatal("fig2 not found")
	}
	if _, ok := Find("nonsense"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

func TestTable1Runs(t *testing.T) {
	tables, err := mustFind(t, "table1").Run(RunConfig{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatalf("table1 should list 4 graphs, got %+v", tables)
	}
}

func TestTheoryExperimentRuns(t *testing.T) {
	tables, err := mustFind(t, "theory").Run(RunConfig{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("theory should produce 6 tables, got %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
	}
}

func TestSmallComparisonExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiment is slow")
	}
	// Shrink to a single thread count and validation on, to exercise the
	// full fig2 path end to end.
	tables, err := mustFind(t, "fig2").Run(RunConfig{Scale: 1, Threads: []int{2}, Reps: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Fatalf("fig2 should emit 12 panels, got %d", len(tables))
	}
}

func TestKLSMExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("klsm ablation experiment is slow")
	}
	tables, err := mustFind(t, "klsm").Run(RunConfig{Scale: 1, Threads: []int{2}, Reps: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("klsm should emit one table, got %d", len(tables))
	}
	tb := tables[0]
	if len(tb.Header) != 1+len(klsmRelaxations) {
		t.Fatalf("klsm header %v should have a column per relaxation", tb.Header)
	}
	if len(tb.Rows) != len(QuickWorkloads(1)) {
		t.Fatalf("klsm table has %d rows, want one per quick workload (%d)",
			len(tb.Rows), len(QuickWorkloads(1)))
	}
}

func TestTableWriters(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "b"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")

	var tsv bytes.Buffer
	if err := tb.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv.String(), "# demo") || !strings.Contains(tsv.String(), "1\t2") {
		t.Fatalf("bad TSV: %q", tsv.String())
	}

	var txt bytes.Buffer
	if err := tb.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "== demo ==") {
		t.Fatalf("bad text: %q", txt.String())
	}

	var both bytes.Buffer
	if err := WriteTables(&both, []Table{tb, tb}, "tsv"); err != nil {
		t.Fatal(err)
	}
	if strings.Count(both.String(), "# demo") != 2 {
		t.Fatal("WriteTables dropped a table")
	}
}

func TestSpeedupCellFormat(t *testing.T) {
	if got := speedupCell(1.5, 1.07); got != "1.50/1.07" {
		t.Fatalf("cell = %q", got)
	}
}

func TestGeomExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("geom experiment is slow")
	}
	tables, err := mustFind(t, "geom").Run(RunConfig{Scale: 1, Threads: []int{2}, Reps: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("geom should emit k-NN and EMST tables, got %d", len(tables))
	}
	// One TSV row per scheduler × distribution in each table.
	want := len(StandardSchedulers()) * len(geomDistributions(1))
	for _, tb := range tables {
		if len(tb.Rows) != want {
			t.Fatalf("%q has %d rows, want %d", tb.Title, len(tb.Rows), want)
		}
	}
	var tsv bytes.Buffer
	if err := WriteTables(&tsv, tables, "tsv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv.String(), "UNIFORM\tsmq\t") {
		t.Fatalf("TSV missing scheduler × distribution rows:\n%s", tsv.String())
	}
}
