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
	if dm.Makespan() != dagBase.Makespan() || dm.Checksum() != dagBase.Checksum() {
		t.Fatalf("cbpq DAG outcome (makespan %d, checksum %#x) != coarse (%d, %#x)",
			dm.Makespan(), dm.Checksum(), dagBase.Makespan(), dagBase.Checksum())
	}
}

// TestBoundSourceLabels pins the window-provenance labels the reports
// carry (schema >= 6).
func TestBoundSourceLabels(t *testing.T) {
	cases := []struct {
		bound int64
		exact bool
		want  string
	}{
		{-1, false, "unchecked"},
		{0, true, "exact"},
		{1028, true, "exact"},
		{512, false, "expectation"},
	}
	for _, c := range cases {
		if got := BoundSource(c.bound, c.exact); got != c.want {
			t.Errorf("BoundSource(%d, %t) = %q, want %q", c.bound, c.exact, got, c.want)
		}
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
	if base.Makespan() == 0 {
		t.Fatal("zero makespan")
	}
	for _, name := range []string{"smq", "klsm", "obim"} {
		m := newDAG()
		spec, _ := zoo.Lookup[Event](name)
		if _, err := Run(spec.Make(workers, 11), m, Config{Workers: workers, Lookahead: -1}); err != nil {
			t.Fatal(err)
		}
		if m.Makespan() != base.Makespan() {
			t.Fatalf("%s makespan %d != coarse %d", name, m.Makespan(), base.Makespan())
		}
		if m.Checksum() != base.Checksum() {
			t.Fatalf("%s checksum %#x != coarse %#x", name, m.Checksum(), base.Checksum())
		}
	}
}

// lookup resolves a zoo name at the Event payload.
func lookup(t *testing.T, name string) zoo.Spec[Event] {
	t.Helper()
	spec, ok := zoo.Lookup[Event](name)
	if !ok {
		t.Fatalf("no zoo spec %q", name)
	}
	return spec
}

func TestRunOneUnknownScheduler(t *testing.T) {
	// A failed lookup returns the zero spec, which RunOne must refuse.
	unknown, _ := zoo.Lookup[Event]("definitely-not-a-scheduler")
	if _, err := RunOne(unknown, "cluster", BenchConfig{Workers: 2}); err == nil {
		t.Fatal("want error for unknown scheduler")
	}
	if _, err := RunOne(lookup(t, "smq"), "not-a-model", BenchConfig{Workers: 2}); err == nil {
		t.Fatal("want error for unknown model")
	}
}

// TestRunOneSmoke runs a tiny scheduler × model grid end to end: every
// run passes validateDesim (RunOne validates internally), and every
// scheduler of one model reports the same checksum.
func TestRunOneSmoke(t *testing.T) {
	wantSource := map[string]string{"coarse": "exact", "cbpq": "exact", "smq": "expectation", "klsm": "exact"}
	for _, model := range []string{"cluster", "dag"} {
		var want uint64
		for i, name := range []string{"coarse", "cbpq", "smq", "klsm"} {
			dr, err := RunOne(lookup(t, name), model, BenchConfig{Workers: 2, Events: 40_000, Layers: 32, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if (name == "klsm" || name == "cbpq") && dr.Violations != 0 {
				t.Fatalf("%s %s run has %d violations", name, model, dr.Violations)
			}
			if name == "coarse" && model == "cluster" && len(dr.PerTenant) == 0 {
				t.Fatal("cluster run missing per-tenant section")
			}
			if dr.BoundSource != wantSource[name] {
				t.Fatalf("%s %s bound_source %q, want %q", name, model, dr.BoundSource, wantSource[name])
			}
			if i == 0 {
				want = dr.Checksum
			} else if dr.Checksum != want {
				t.Fatalf("%s %s checksum %#x != coarse %#x", name, model, dr.Checksum, want)
			}
		}
	}
}

// TestValidateDesimRejects feeds the validator one broken claim at a
// time, starting from runs RunOne produced (and so accepted). The
// load-bearing case is a violation under an exact bound the window
// covers: that run asserts a safety property it disproved.
func TestValidateDesimRejects(t *testing.T) {
	var base []DesimResult
	for _, name := range []string{"klsm", "smq", "obim"} {
		dr, err := RunOne(lookup(t, name), "cluster", BenchConfig{Workers: 2, Events: 20_000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, dr)
	}
	const exact, expectation, unchecked = 0, 1, 2
	for i, want := range []string{"exact", "expectation", "unchecked"} {
		if got := base[i].BoundSource; got != want {
			t.Fatalf("%s bound_source = %q, want %q", base[i].Scheduler, got, want)
		}
	}
	if dr := base[exact]; dr.Lookahead < dr.RankBound {
		t.Fatalf("klsm window %d does not cover its bound %d", dr.Lookahead, dr.RankBound)
	}
	for _, tc := range []struct {
		name string
		run  int
		mut  func(dr *DesimResult)
		want string
	}{
		{"accepted as generated", exact, func(*DesimResult) {}, ""},
		{"violation under a covering exact bound", exact, func(dr *DesimResult) { dr.Violations = 1 },
			"1 causality violations with lookahead"},
		{"violation under an expectation bound is informative", expectation, func(dr *DesimResult) { dr.Violations = 1 }, ""},
		{"violation reported by an unchecked run", unchecked, func(dr *DesimResult) { dr.Violations = 1 },
			"violations reported by an unchecked run"},
		{"exact label on an inexact bound", expectation, func(dr *DesimResult) { dr.BoundSource = "exact" },
			"bound_source exact contradicts"},
		{"expectation label on an exact bound", exact, func(dr *DesimResult) { dr.BoundSource = "expectation" },
			"bound_source expectation contradicts"},
		{"unchecked label with a window", exact, func(dr *DesimResult) { dr.BoundSource = "unchecked" },
			"bound_source unchecked but lookahead"},
		{"exact label without a window", unchecked, func(dr *DesimResult) { dr.BoundSource, dr.BoundExact = "exact", true },
			"bound_source exact contradicts"},
		{"missing label", exact, func(dr *DesimResult) { dr.BoundSource = "" }, "want exact/expectation/unchecked"},
		{"non-monotone tenant percentiles", exact, func(dr *DesimResult) {
			ten := &dr.PerTenant[0]
			ten.P50 = ten.P99 + 1
		}, "non-monotone sojourn percentiles"},
	} {
		dr := base[tc.run]
		dr.PerTenant = append([]TenantDesimResult(nil), dr.PerTenant...)
		tc.mut(&dr)
		err := validateDesim(&dr)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}
