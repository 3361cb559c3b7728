package shard

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/perfbench"
)

// toyPlan builds a three-cell plan whose middle cell blocks on hang
// until the returned release function is called.
func toyPlan() (*harness.Plan, func()) {
	hang := make(chan struct{})
	p := harness.NewPlan("toy", harness.RunConfig{})
	p.AddCell(harness.Cell{Key: "a"}, func(harness.Cell) (harness.CellResult, error) {
		return harness.CellResult{Tasks: 1}, nil
	})
	p.AddCell(harness.Cell{Key: "hang"}, func(harness.Cell) (harness.CellResult, error) {
		<-hang
		return harness.CellResult{Tasks: 2}, nil
	})
	p.AddCell(harness.Cell{Key: "c"}, func(harness.Cell) (harness.CellResult, error) {
		return harness.CellResult{Tasks: 3}, nil
	})
	var once bool
	return p, func() {
		if !once {
			once = true
			close(hang)
		}
	}
}

func TestSelect(t *testing.T) {
	p, release := toyPlan()
	defer release()
	if got := Select(p, Options{}); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("full selection = %v", got)
	}
	if got := Select(p, Options{Shard: 0, Of: 2}); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("shard 0/2 = %v", got)
	}
	if got := Select(p, Options{Shard: 1, Of: 2}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("shard 1/2 = %v", got)
	}
	if got := Select(p, Options{Cells: []int{2, 0, 99, -1}}); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("explicit cells = %v", got)
	}
}

// TestTimeoutDoesNotFailOthers is the acceptance criterion: a cell that
// exceeds its budget is reported as status=timeout while the remaining
// cells complete normally.
func TestTimeoutDoesNotFailOthers(t *testing.T) {
	p, release := toyPlan()
	defer release()
	rs := Run(p, Options{Timeout: 50 * time.Millisecond})
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].Status != harness.CellOK || rs[2].Status != harness.CellOK {
		t.Fatalf("healthy cells failed: %+v %+v", rs[0], rs[2])
	}
	if rs[1].Status != harness.CellTimeout {
		t.Fatalf("hung cell status = %q, want timeout", rs[1].Status)
	}
	if rs[1].Attempts != 1 {
		t.Fatalf("attempts = %d without retries", rs[1].Attempts)
	}
	if rs[1].Error == "" {
		t.Fatal("timeout without message")
	}
}

func TestTimeoutRetryThenSuccess(t *testing.T) {
	// The timed-out first attempt's goroutine is abandoned, not killed,
	// so it runs concurrently with the retry: the counter must be atomic.
	var calls atomic.Int32
	p := harness.NewPlan("toy", harness.RunConfig{})
	p.AddCell(harness.Cell{Key: "flaky"}, func(harness.Cell) (harness.CellResult, error) {
		if calls.Add(1) == 1 {
			time.Sleep(time.Second) // first attempt blows the budget
		}
		return harness.CellResult{Tasks: 7}, nil
	})
	rs := Run(p, Options{Timeout: 50 * time.Millisecond, Retries: 2})
	if rs[0].Status != harness.CellOK {
		t.Fatalf("status = %q after retry, want ok (%s)", rs[0].Status, rs[0].Error)
	}
	if rs[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rs[0].Attempts)
	}
}

func TestTimeoutRetriesExhausted(t *testing.T) {
	p, release := toyPlan()
	defer release()
	rs := Run(p, Options{Cells: []int{1}, Timeout: 20 * time.Millisecond, Retries: 2})
	if rs[0].Status != harness.CellTimeout || rs[0].Attempts != 3 {
		t.Fatalf("status %q attempts %d, want timeout after 3 attempts", rs[0].Status, rs[0].Attempts)
	}
}

func TestErrorsAreNotRetried(t *testing.T) {
	calls := 0
	p := harness.NewPlan("toy", harness.RunConfig{})
	p.AddCell(harness.Cell{Key: "bad"}, func(harness.Cell) (harness.CellResult, error) {
		calls++
		return harness.CellResult{}, fmt.Errorf("validation failed")
	})
	rs := Run(p, Options{Timeout: time.Second, Retries: 3})
	if rs[0].Status != harness.CellError || calls != 1 {
		t.Fatalf("status %q after %d calls, want one non-retried error", rs[0].Status, calls)
	}
}

// TestFragmentHeader pins the header a shard stamps on its fragment:
// it must validate, and record the GOMAXPROCS the cells ran under
// (hand-filled headers once left it 0).
func TestFragmentHeader(t *testing.T) {
	p, release := toyPlan()
	release()
	rep := Fragment(p, Run(p, Options{}), nil, "test")
	if err := perfbench.Validate(rep); err != nil {
		t.Fatalf("fragment fails validation: %v", err)
	}
	if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("fragment gomaxprocs = %d, want %d", rep.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
}

// TestShardedTheoryMatchesDirect is the headline acceptance test: the
// theory grid run as two separate shards, packaged as fragments, merged
// with perfbench.Merge and assembled from the merged artifact renders
// byte-identical TSV to the same grid run in-process (the theory tables
// carry no timing fields, so "modulo timing" is exact identity here).
func TestShardedTheoryMatchesDirect(t *testing.T) {
	e, ok := harness.Find("theory")
	if !ok {
		t.Fatal("theory experiment missing")
	}
	cfg := harness.RunConfig{Scale: 1, Seed: 21}

	direct, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var directTSV bytes.Buffer
	if err := harness.WriteTables(&directTSV, direct, "tsv"); err != nil {
		t.Fatal(err)
	}

	// Two independent plans, as two processes would build them.
	var fragments []*perfbench.Report
	for s := 0; s < 2; s++ {
		p, err := e.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := Run(p, Options{Shard: s, Of: 2, Timeout: time.Minute})
		fragments = append(fragments, Fragment(p, rs, &perfbench.ShardInfo{Index: s, Total: 2}, "test shard"))
	}
	merged, err := perfbench.Merge(fragments)
	if err != nil {
		t.Fatal(err)
	}

	p, err := e.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := AssembleFragment(p, merged)
	if err != nil {
		t.Fatal(err)
	}
	var shardTSV bytes.Buffer
	if err := harness.WriteTables(&shardTSV, tables, "tsv"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directTSV.Bytes(), shardTSV.Bytes()) {
		t.Fatalf("sharded TSV differs from direct run:\n--- direct ---\n%s\n--- sharded ---\n%s",
			directTSV.String(), shardTSV.String())
	}
}

func TestAssembleFragmentRejectsDrift(t *testing.T) {
	p, release := toyPlan()
	release()
	rs := Run(p, Options{})
	rep := Fragment(p, rs, nil, "test")

	// Wrong experiment.
	other := harness.NewPlan("other", harness.RunConfig{})
	other.AddCell(harness.Cell{Key: "a"}, func(harness.Cell) (harness.CellResult, error) {
		return harness.CellResult{}, nil
	})
	if _, err := AssembleFragment(other, rep); err == nil {
		t.Fatal("foreign fragment accepted")
	}

	// Key drift: same shape, different enumeration.
	rep.Experiments[0].Cells[1].Key = "tampered"
	if _, err := AssembleFragment(p, rep); err == nil {
		t.Fatal("key drift not detected")
	}
}

func TestSubprocessFragment(t *testing.T) {
	p, release := toyPlan()
	release()

	// Fake the child: pre-compute the fragment a real subprocess would
	// print for each cell and cat it from a file.
	dir := t.TempDir()
	files := make([]string, len(p.Cells))
	for i := range p.Cells {
		res := p.RunCell(i)
		rep := Fragment(p, []harness.CellResult{res}, nil, "fake child")
		b, err := perfbench.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = filepath.Join(dir, fmt.Sprintf("cell%d.json", i))
		if err := os.WriteFile(files[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rs := Run(p, Options{
		Timeout: 5 * time.Second,
		Exec:    func(i int) *exec.Cmd { return exec.Command("cat", files[i]) },
	})
	for i, r := range rs {
		if r.Status != harness.CellOK {
			t.Fatalf("cell %d via subprocess: %s (%s)", i, r.Status, r.Error)
		}
	}
	if rs[2].Tasks != 3 {
		t.Fatalf("subprocess result lost measurements: %+v", rs[2])
	}
}

func TestSubprocessKilledOnTimeout(t *testing.T) {
	p, release := toyPlan()
	release()
	start := time.Now()
	rs := Run(p, Options{
		Cells:   []int{0},
		Timeout: 100 * time.Millisecond,
		Exec:    func(int) *exec.Cmd { return exec.Command("sleep", "30") },
	})
	if rs[0].Status != harness.CellTimeout {
		t.Fatalf("status = %q, want timeout", rs[0].Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("subprocess not killed promptly (took %v)", elapsed)
	}
}

func TestSubprocessFailureIsCellError(t *testing.T) {
	p, release := toyPlan()
	release()
	rs := Run(p, Options{
		Cells: []int{0},
		Exec:  func(int) *exec.Cmd { return exec.Command("false") },
	})
	if rs[0].Status != harness.CellError {
		t.Fatalf("status = %q, want error", rs[0].Status)
	}
}
