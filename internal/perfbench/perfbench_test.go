package perfbench

import (
	"runtime"
	"testing"
)

func goodReport() *Report {
	return mkFragReport(ExperimentFragment{Experiment: "fig1", Config: "c", TotalCells: 2,
		Cells: []CellRecord{cell(0, CellOK), cell(1, CellError)}}, "h1")
}

func TestNewHeader(t *testing.T) {
	h := NewHeader("test")
	if err := h.Validate(); err != nil {
		t.Fatalf("fresh header rejected: %v", err)
	}
	if h.GeneratedBy != "test" || h.GOMAXPROCS != runtime.GOMAXPROCS(0) || h.Host == nil {
		t.Fatalf("header not stamped: %+v", h)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	r := goodReport()
	b, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(back); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	if back.Experiments[0].Experiment != "fig1" || back.SchemaVersion != SchemaVersion || back.Host.Hostname != "h1" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestValidateRejectsBadReports(t *testing.T) {
	if err := Validate(goodReport()); err != nil {
		t.Fatalf("baseline good report rejected: %v", err)
	}
	cases := map[string]func(r *Report){
		"newer version":   func(r *Report) { r.SchemaVersion = SchemaVersion + 1 },
		"older version":   func(r *Report) { r.SchemaVersion = SchemaVersion - 1 },
		"no go version":   func(r *Report) { r.GoVersion = "" },
		"no generator":    func(r *Report) { r.GeneratedBy = "" },
		"zero gomaxprocs": func(r *Report) { r.GOMAXPROCS = 0 },
		"no experiments":  func(r *Report) { r.Experiments = nil },
		"bad fragment":    func(r *Report) { r.Experiments[0].Config = "" },
	}
	for name, mutate := range cases {
		r := goodReport()
		mutate(r)
		if err := Validate(r); err == nil {
			t.Errorf("%s: Validate accepted a bad report", name)
		}
	}
	if err := Validate(nil); err == nil {
		t.Error("Validate accepted nil")
	}
}
