package desim

import (
	"strings"
	"testing"

	"repro/internal/zoo"
)

func TestWindowPrefixCounts(t *testing.T) {
	w := newWindow(1 << 12)
	if w.shift != 0 {
		t.Fatalf("small horizon should get 1-wide buckets, got shift %d", w.shift)
	}
	for _, ts := range []uint64{0, 1, 1, 5, 100, 4096} {
		w.Register(ts)
	}
	cases := []struct {
		t    uint64
		want int64
	}{
		{0, 0},   // own bucket excluded
		{1, 1},   // just ts=0
		{2, 3},   // 0,1,1
		{5, 3},   // own bucket excluded again
		{6, 4},   // 0,1,1,5
		{101, 5}, // all but the horizon event
		// 5000 clamps into the same last bucket as the ts=4096 event,
		// and own-bucket events never count — clamping is lenient.
		{5000, 5},
	}
	for _, c := range cases {
		if got := w.Before(c.t); got != c.want {
			t.Errorf("Before(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	w.Unregister(1)
	if got := w.Before(2); got != 2 {
		t.Errorf("after Unregister(1): Before(2) = %d, want 2", got)
	}
}

func TestWindowCapsBucketCount(t *testing.T) {
	w := newWindow(1 << 40)
	if len(w.tree) > maxWindowBuckets {
		t.Fatalf("tree has %d buckets, cap is %d", len(w.tree), maxWindowBuckets)
	}
	if w.shift == 0 {
		t.Fatal("wide horizon should coarsen buckets")
	}
	w.Register(1 << 39)
	if got := w.Before(1 << 41); got != 1 {
		t.Fatalf("Before past horizon = %d, want 1", got)
	}
}

// testCluster builds a small cluster (fresh per call — models are
// single-use).
func testCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Stations: 16, ArrivalsPerStation: 400, Workers: workers, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterIdenticalAcrossSchedulers is the engine's core claim: the
// cluster model's outcome — completions, checksum, per-tenant sojourn
// percentiles — is event-for-event identical whatever scheduler runs
// it, because all cross-event state is either chain-sequential or
// commutative. The exact coarse queue is the baseline; every relaxed
// scheduler must match it bit for bit.
func TestClusterIdenticalAcrossSchedulers(t *testing.T) {
	const workers = 4
	base := testCluster(t, workers)
	spec, _ := zoo.Lookup[Event]("coarse")
	st, err := Run(spec.Make(workers, 7), base, Config{Workers: workers, Lookahead: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != base.Events() {
		t.Fatalf("coarse executed %d events, want %d", st.Events, base.Events())
	}
	wantSum := base.Checksum()
	wantTenants := base.PerTenant()

	for _, name := range []string{"cbpq", "smq", "mq", "emq", "klsm", "spray", "obim"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m := testCluster(t, workers)
			spec, ok := zoo.Lookup[Event](name)
			if !ok {
				t.Fatalf("zoo has no %q", name)
			}
			// Unchecked run: this test is about model identity, not
			// the causality window.
			st, err := Run(spec.Make(workers, 7), m, Config{Workers: workers, Lookahead: -1})
			if err != nil {
				t.Fatal(err)
			}
			if st.Events != base.Events() {
				t.Fatalf("executed %d events, want %d", st.Events, base.Events())
			}
			if got := m.Checksum(); got != wantSum {
				t.Fatalf("checksum %#x, want coarse baseline %#x", got, wantSum)
			}
			for i, ten := range m.PerTenant() {
				if ten != wantTenants[i] {
					t.Fatalf("tenant %d = %+v, want %+v", i, ten, wantTenants[i])
				}
			}
		})
	}
}

// TestKLSMWithinWorstCaseBound is the tentpole's safety regression: a
// k-LSM checked with its worst-case window (P−1)·k+P must report ZERO
// causality violations, and the simulated outcome must equal the exact
// baseline. The k-LSM bound is a hard guarantee, not an expectation, so
// any nonzero count here is a bug in the scheduler or the window.
func TestKLSMWithinWorstCaseBound(t *testing.T) {
	const workers = 4
	spec, _ := zoo.Lookup[Event]("klsm")
	bound, exact := spec.RankBound(workers)
	if !exact {
		t.Fatal("klsm bound must be exact")
	}

	base := testCluster(t, workers)
	cs, _ := zoo.Lookup[Event]("coarse")
	if _, err := Run(cs.Make(workers, 7), base, Config{Workers: workers, Lookahead: 0}); err != nil {
		t.Fatal(err)
	}

	m := testCluster(t, workers)
	st, err := Run(spec.Make(workers, 7), m, Config{Workers: workers, Lookahead: bound})
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("k-LSM reported %d causality violations inside its worst-case window %d (max lead %d)",
			st.Violations, bound, st.MaxLead)
	}
	if m.Checksum() != base.Checksum() {
		t.Fatalf("k-LSM checksum %#x != coarse %#x", m.Checksum(), base.Checksum())
	}
}

// TestCoarseWithinZeroBound: the exact queue with a zero-width window
// must also be violation-free — the threshold slack alone absorbs the
// concurrency blur.
func TestCoarseWithinZeroBound(t *testing.T) {
	const workers = 4
	m := testCluster(t, workers)
	spec, _ := zoo.Lookup[Event]("coarse")
	st, err := Run(spec.Make(workers, 7), m, Config{Workers: workers, Lookahead: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("exact queue reported %d violations (max lead %d)", st.Violations, st.MaxLead)
	}
}

// TestCBPQWithinZeroBound: the lock-free CBPQ claims the same exact
// rank bound (0) as the coarse queue, so a zero-width window must be
// violation-free on both models, and the simulated outcome must be
// bitwise-identical to the coarse baseline — the lock-free tier buys
// progress guarantees, not relaxation.
func TestCBPQWithinZeroBound(t *testing.T) {
	const workers = 4
	spec, ok := zoo.Lookup[Event]("cbpq")
	if !ok {
		t.Fatal("zoo has no cbpq")
	}
	if bound, exact := spec.RankBound(workers); bound != 0 || !exact {
		t.Fatalf("cbpq RankBound = (%d, %t), want (0, true)", bound, exact)
	}

	// Cluster: zero-lookahead run vs the coarse baseline.
	base := testCluster(t, workers)
	cs, _ := zoo.Lookup[Event]("coarse")
	if _, err := Run(cs.Make(workers, 7), base, Config{Workers: workers, Lookahead: 0}); err != nil {
		t.Fatal(err)
	}
	m := testCluster(t, workers)
	st, err := Run(spec.Make(workers, 7), m, Config{Workers: workers, Lookahead: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != base.Events() {
		t.Fatalf("cbpq executed %d events, want %d", st.Events, base.Events())
	}
	if st.Violations != 0 {
		t.Fatalf("cbpq reported %d violations inside its zero window (max lead %d)", st.Violations, st.MaxLead)
	}
	if m.Checksum() != base.Checksum() {
		t.Fatalf("cbpq cluster checksum %#x != coarse %#x", m.Checksum(), base.Checksum())
	}
	for i, ten := range m.PerTenant() {
		if want := base.PerTenant()[i]; ten != want {
			t.Fatalf("tenant %d = %+v, want %+v", i, ten, want)
		}
	}

	// DAG: same zero-window safety claim and outcome identity.
	newDAG := func() *DAG {
		d, err := NewDAG(DAGConfig{Layers: 64, Width: 64, Workers: workers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	dagBase := newDAG()
	if _, err := Run(cs.Make(workers, 11), dagBase, Config{Workers: workers, Lookahead: 0}); err != nil {
		t.Fatal(err)
	}
	dm := newDAG()
	st, err = Run(spec.Make(workers, 11), dm, Config{Workers: workers, Lookahead: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("cbpq DAG run reported %d violations inside its zero window (max lead %d)", st.Violations, st.MaxLead)
	}
	if dm.span.Load() != dagBase.span.Load() || dm.Checksum() != dagBase.Checksum() {
		t.Fatalf("cbpq DAG outcome (makespan %d, checksum %#x) != coarse (%d, %#x)",
			dm.span.Load(), dm.Checksum(), dagBase.span.Load(), dagBase.Checksum())
	}
}

// TestBelowBoundViolationsDetected drives a relaxed scheduler with a
// window far below its actual relaxation and requires the check to
// notice. One worker makes the run deterministic: a classic Multi-Queue
// spreads tasks over C·1 = 4 internal queues and pops from a 2-sample,
// so out-of-window pops are structural, not a race artifact.
func TestBelowBoundViolationsDetected(t *testing.T) {
	m := testCluster(t, 1)
	spec, _ := zoo.Lookup[Event]("mq")
	st, err := Run(spec.Make(1, 7), m, Config{Workers: 1, Lookahead: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations == 0 {
		t.Fatalf("classic MQ with a zero window reported no violations (max lead %d, mean %g) — the causality check is dead",
			st.MaxLead, st.MeanLead)
	}
	// The model contract still holds — relaxation reorders execution,
	// it must not change the simulated outcome.
	base := testCluster(t, 1)
	cs, _ := zoo.Lookup[Event]("coarse")
	if _, err := Run(cs.Make(1, 7), base, Config{Workers: 1, Lookahead: -1}); err != nil {
		t.Fatal(err)
	}
	if m.Checksum() != base.Checksum() {
		t.Fatalf("checksum diverged under relaxation: %#x != %#x", m.Checksum(), base.Checksum())
	}
}

func TestDAGMakespanIdenticalAcrossSchedulers(t *testing.T) {
	const workers = 4
	newDAG := func() *DAG {
		d, err := NewDAG(DAGConfig{Layers: 64, Width: 64, Workers: workers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := newDAG()
	cs, _ := zoo.Lookup[Event]("coarse")
	st, err := Run(cs.Make(workers, 11), base, Config{Workers: workers, Lookahead: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != base.Events() {
		t.Fatalf("executed %d events, want %d", st.Events, base.Events())
	}
	if base.span.Load() == 0 {
		t.Fatal("zero makespan")
	}
	for _, name := range []string{"smq", "klsm", "obim"} {
		m := newDAG()
		spec, _ := zoo.Lookup[Event](name)
		if _, err := Run(spec.Make(workers, 11), m, Config{Workers: workers, Lookahead: -1}); err != nil {
			t.Fatal(err)
		}
		if m.span.Load() != base.span.Load() {
			t.Fatalf("%s makespan %d != coarse %d", name, m.span.Load(), base.span.Load())
		}
		if m.Checksum() != base.Checksum() {
			t.Fatalf("%s checksum %#x != coarse %#x", name, m.Checksum(), base.Checksum())
		}
	}
}

// reseeded pushes its model's first initial event copies times (0 loses
// it, 2 duplicates it) and every other one once.
type reseeded struct {
	Model
	copies int
}

func (m reseeded) Seed(push Pusher) {
	n := m.copies
	m.Model.Seed(func(ev Event) {
		for range n {
			push(ev)
		}
		n = 1
	})
}

// TestRunRejectsMiscountedEvents: a run that loses or duplicates events
// executes another number than its model defines, and Run reports it as
// an error instead of its stats. Losing station 0's first arrival loses
// its whole arrival chain; pushing it twice starts a second chain on the
// station, so the run stays on one worker: a station's state belongs to
// one chain at a time.
func TestRunRejectsMiscountedEvents(t *testing.T) {
	const workers = 1
	spec, _ := zoo.Lookup[Event]("coarse")
	for _, copies := range []int{0, 2} {
		m := reseeded{testCluster(t, workers), copies}
		_, err := Run(spec.Make(workers, 7), m, Config{Workers: workers, Lookahead: -1})
		if err == nil || !strings.Contains(err.Error(), "lost or duplicated events") {
			t.Errorf("first event pushed %d times: Run err = %v, want a miscounted-events error", copies, err)
		}
	}
}
