package perfbench

import (
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
	good := ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 2,
		Cells: []CellRecord{cell(1, CellTimeout), cell(0, CellOK)}}
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
		{"no cells", func(f *ExperimentFragment) { f.Cells = nil }, "has 0 cells"},
		{"partial", func(f *ExperimentFragment) { f.Cells = f.Cells[:1] }, "has 1 cells, total_cells 2"},
		{"dup index", func(f *ExperimentFragment) { f.Cells = []CellRecord{cell(1, CellOK), cell(1, CellOK)} }, "duplicate"},
		{"out of range", func(f *ExperimentFragment) { f.Cells[1] = cell(9, CellOK) }, "outside"},
		{"bad status", func(f *ExperimentFragment) { f.Cells[1].Status = "meh" }, "unknown status"},
		{"timeout without error", func(f *ExperimentFragment) { f.Cells[0].Error = "" }, "without error message"},
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

func TestCollectHost(t *testing.T) {
	h := CollectHost()
	if h.Hostname == "" || h.OS == "" || h.Arch == "" || h.NumCPU < 1 {
		t.Fatalf("incomplete host fingerprint: %+v", h)
	}
}
