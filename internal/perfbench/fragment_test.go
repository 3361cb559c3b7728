package perfbench

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func mkFragReport(frag ExperimentFragment, host string) *Report {
	return &Report{
		Header: Header{
			SchemaVersion: SchemaVersion,
			GeneratedBy:   "test",
			GoVersion:     "go-test",
			GOMAXPROCS:    2,
			Host:          &HostInfo{Hostname: host, OS: "linux", Arch: "amd64", NumCPU: 4},
		},
		Experiments: []ExperimentFragment{frag},
	}
}

func cell(i int, status string) CellRecord {
	c := CellRecord{Cell: Cell{Index: i, Key: "cell/" + string(rune('a'+i)), Kind: "measure", Seed: uint64(i + 1)},
		Status: status, Attempts: 1, Tasks: uint64(100 + i)}
	if status != CellOK {
		c.Error = "deadline exceeded"
	}
	return c
}

func TestValidateFragment(t *testing.T) {
	good := ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 4,
		Shard: &ShardInfo{Index: 0, Total: 2}, Cells: []CellRecord{cell(0, CellOK), cell(2, CellTimeout)}}
	if err := validateFragment(&good); err != nil {
		t.Fatalf("good fragment rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(f *ExperimentFragment)
		want string
	}{
		{"empty experiment", func(f *ExperimentFragment) { f.Experiment = "" }, "empty experiment"},
		{"empty config", func(f *ExperimentFragment) { f.Config = "" }, "config"},
		{"zero total", func(f *ExperimentFragment) { f.TotalCells = 0 }, "total_cells"},
		{"no cells", func(f *ExperimentFragment) { f.Cells = nil }, "no cells"},
		{"dup index", func(f *ExperimentFragment) { f.Cells = []CellRecord{cell(1, CellOK), cell(1, CellOK)} }, "duplicate"},
		{"out of range", func(f *ExperimentFragment) { f.Cells = []CellRecord{cell(9, CellOK)} }, "outside"},
		{"bad status", func(f *ExperimentFragment) { f.Cells[0].Status = "meh" }, "unknown status"},
		{"timeout without error", func(f *ExperimentFragment) { f.Cells[1].Error = "" }, "without error message"},
		{"bad shard", func(f *ExperimentFragment) { f.Shard = &ShardInfo{Index: 2, Total: 2} }, "out of range"},
	}
	for _, tc := range cases {
		f := good
		f.Cells = append([]CellRecord(nil), good.Cells...)
		tc.mut(&f)
		err := validateFragment(&f)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateReportWithFragment(t *testing.T) {
	r := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 2,
		Cells: []CellRecord{cell(0, CellOK), cell(1, CellError)}}, "h1")
	if err := Validate(r); err != nil {
		t.Fatalf("fragment report rejected: %v", err)
	}
}

// TestCellRecordJSONRoundTrip pins the fragment cell layout: the one
// cell struct shared by the harness and the artifact must survive
// Marshal/Parse with every field, and keep its flat key order (cell
// identity first, then status and measurements).
func TestCellRecordJSONRoundTrip(t *testing.T) {
	c := CellRecord{
		Cell: Cell{Index: 3, Key: "k", Kind: "measure", Workload: "w",
			Scheduler: "s", Params: "p", Threads: 2, Reps: 2, Seed: 99},
		Status: CellTimeout, Error: "e", Attempts: 2, DurationNs: 5, ElapsedNs: 7,
		Tasks: 11, Wasted: 13, Remote: 0.5, Values: map[string]float64{"x": 1},
	}
	r := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 4,
		Cells: []CellRecord{c}}, "h")
	b, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Experiments[0].Cells[0]; !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", got, c)
	}
	var keys []string
	for _, m := range regexp.MustCompile(`(?m)^          "(\w+)":`).FindAllSubmatch(b, -1) {
		keys = append(keys, string(m[1]))
	}
	want := "index key kind workload scheduler params threads reps seed status error attempts " +
		"duration_ns elapsed_ns tasks wasted remote values"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("cell keys = %q\nwant        %q", got, want)
	}
}

// TestMergeCommutative is the order-independence contract: merging the
// same fragments in any order yields byte-identical artifacts.
func TestMergeCommutative(t *testing.T) {
	a := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 4,
		Shard: &ShardInfo{Index: 0, Total: 2},
		Cells: []CellRecord{cell(0, CellOK), cell(2, CellOK)}}, "hostB")
	b := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 4,
		Shard: &ShardInfo{Index: 1, Total: 2},
		Cells: []CellRecord{cell(1, CellTimeout), cell(3, CellOK)}}, "hostA")

	ab, err := Merge([]*Report{a, b})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge([]*Report{b, a})
	if err != nil {
		t.Fatal(err)
	}
	abBytes, err := Marshal(ab)
	if err != nil {
		t.Fatal(err)
	}
	baBytes, err := Marshal(ba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abBytes, baBytes) {
		t.Fatalf("merge not commutative:\n--- A,B ---\n%s\n--- B,A ---\n%s", abBytes, baBytes)
	}

	if len(ab.Experiments) != 1 || len(ab.Experiments[0].Cells) != 4 {
		t.Fatalf("merged fragment wrong shape: %+v", ab.Experiments)
	}
	for i, c := range ab.Experiments[0].Cells {
		if c.Index != i {
			t.Fatalf("merged cells not in index order: %d at %d", c.Index, i)
		}
	}
	if ab.Experiments[0].Cells[1].Status != CellTimeout {
		t.Fatal("timeout status lost in merge")
	}
	if len(ab.Hosts) != 2 || ab.Hosts[0].Hostname != "hostA" {
		t.Fatalf("hosts not unioned/sorted: %+v", ab.Hosts)
	}
	if ab.Host != nil {
		t.Fatal("merged report must clear the single-host fingerprint")
	}
	if ab.MergedFrom != 2 {
		t.Fatalf("merged_from = %d", ab.MergedFrom)
	}
	if err := Validate(ab); err != nil {
		t.Fatalf("merged report invalid: %v", err)
	}
}

func TestMergeRejectsOverlapAndGaps(t *testing.T) {
	a := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 3,
		Cells: []CellRecord{cell(0, CellOK), cell(1, CellOK)}}, "h")
	dup := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 3,
		Cells: []CellRecord{cell(1, CellOK), cell(2, CellOK)}}, "h")
	if _, err := Merge([]*Report{a, dup}); err == nil || !strings.Contains(err.Error(), "multiple fragments") {
		t.Fatalf("overlap not rejected: %v", err)
	}

	gap := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 3,
		Cells: []CellRecord{cell(2, CellOK)}}, "h")
	if _, err := Merge([]*Report{a}); err == nil {
		t.Fatal("incomplete grid not rejected")
	}
	merged, err := Merge([]*Report{a, gap})
	if err != nil {
		t.Fatalf("complete grid rejected: %v", err)
	}
	if !merged.Experiments[0].Complete() {
		t.Fatal("merged fragment not marked complete")
	}
}

func TestMergeKeepsDifferentConfigsApart(t *testing.T) {
	a := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c1", TotalCells: 1,
		Cells: []CellRecord{cell(0, CellOK)}}, "h")
	b := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c2", TotalCells: 1,
		Cells: []CellRecord{cell(0, CellOK)}}, "h")
	m, err := Merge([]*Report{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 2 {
		t.Fatalf("different configs collapsed: %+v", m.Experiments)
	}
}

func TestMergeRejectsTotalCellsMismatch(t *testing.T) {
	a := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 2,
		Cells: []CellRecord{cell(0, CellOK)}}, "h")
	b := mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 3,
		Cells: []CellRecord{cell(1, CellOK)}}, "h")
	if _, err := Merge([]*Report{a, b}); err == nil || !strings.Contains(err.Error(), "total_cells") {
		t.Fatalf("total_cells mismatch not rejected: %v", err)
	}
}

func TestCollectHost(t *testing.T) {
	h := CollectHost()
	if h.Hostname == "" || h.OS == "" || h.Arch == "" || h.NumCPU < 1 {
		t.Fatalf("incomplete host fingerprint: %+v", h)
	}
}
