package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// runService builds the named scheduler, runs one open-loop load
// through a Service, and returns the run's stats plus the generator's.
func runService(t *testing.T, name string, cfg Config, load LoadConfig) (*Stats, LoadStats) {
	t.Helper()
	s, err := Build(name, cfg.Workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ls, err := Generate(svc.In(), svc.Epoch(), load)
	close(svc.In())
	if err != nil {
		t.Fatal(err)
	}
	return svc.Wait(), ls
}

// checkLedger asserts the zero-lost-tasks ledger and the per-tenant
// decomposition of a run.
func checkLedger(t *testing.T, name string, st *Stats, sent int) {
	t.Helper()
	if st.Ingested != uint64(sent) {
		t.Fatalf("%s: ingested %d of %d sent", name, st.Ingested, sent)
	}
	if st.Ingested != st.Completed+st.Shed {
		t.Fatalf("%s: LOST TASKS: ingested %d != completed %d + shed %d",
			name, st.Ingested, st.Completed, st.Shed)
	}
	var sumC, sumS uint64
	for _, ts := range st.PerTenant {
		sumC += ts.Completed
		sumS += ts.Shed
		if ts.Latency.Count() != ts.Completed {
			t.Fatalf("%s: tenant histogram holds %d samples for %d completions",
				name, ts.Latency.Count(), ts.Completed)
		}
	}
	if sumC != st.Completed || sumS != st.Shed {
		t.Fatalf("%s: per-tenant totals (%d, %d) != run totals (%d, %d)",
			name, sumC, sumS, st.Completed, st.Shed)
	}
}

// TestServeSoakZoo is the streaming soak across the whole scheduler
// lineup: bursty Zipf-skewed arrivals whose gaps repeatedly drain the
// queue to empty — exactly the shape that breaks emptiness-based
// termination — then a clean close. Run under -race in CI. Every task
// must be accounted for: the queue hitting zero between bursts must
// neither terminate workers early nor lose the tasks buried in worker-
// local buffers at close time.
func TestServeSoakZoo(t *testing.T) {
	tasks := 30000
	if testing.Short() {
		tasks = 8000
	}
	for _, name := range Lineup() {
		t.Run(name, func(t *testing.T) {
			st, ls := runService(t, name,
				Config{Workers: 4, MinWorkers: 1, Tenants: 3},
				LoadConfig{Rate: 150000, Tasks: tasks, Tenants: 3, Skew: 0.99,
					Burst: 64, CostMin: 20, CostMax: 400, Seed: 7})
			checkLedger(t, name, st, ls.Sent)
			if st.Shed != 0 {
				t.Fatalf("%s: shed %d below the watermark", name, st.Shed)
			}
			if st.Completed != uint64(tasks) {
				t.Fatalf("%s: completed %d of %d", name, st.Completed, tasks)
			}
		})
	}
}

// overload offers more work than the service has workers for: 500 k
// requests/s of 20 to 40 µs each is over ten cores' worth for two
// workers, and still more than two at a seventh of the rate, should the
// generator fall that far behind. (At 2 to 4 µs the same rate is 1.5
// cores' worth: it only overloaded the service while idle workers slept
// through a millisecond per burst.)
var overload = LoadConfig{Rate: 500000, Tenants: 2, CostMin: 20000, CostMax: 40000, Seed: 3}

// TestServeShedPolicy forces the high watermark with a tiny admission
// window and slow service, and checks that shedding both engages and
// keeps the ledger balanced.
func TestServeShedPolicy(t *testing.T) {
	load := overload
	load.Tasks = 20000
	st, ls := runService(t, "smq",
		Config{Workers: 2, MinWorkers: 1, Tenants: 2,
			HighWater: 64, LowWater: 16, Policy: PolicyShed},
		load)
	checkLedger(t, "smq", st, ls.Sent)
	if st.Shed == 0 {
		t.Fatal("overloaded run with PolicyShed shed nothing")
	}
	if st.Completed == 0 {
		t.Fatal("overloaded run completed nothing")
	}
}

// TestServeStallPolicy runs the same overload with PolicyStall:
// nothing may be shed, and backpressure episodes must be recorded.
func TestServeStallPolicy(t *testing.T) {
	load := overload
	load.Tasks = 6000
	if testing.Short() {
		load.Tasks = 2000
	}
	tasks := load.Tasks
	st, ls := runService(t, "smq",
		Config{Workers: 2, MinWorkers: 1, Tenants: 2,
			HighWater: 64, LowWater: 16, Policy: PolicyStall},
		load)
	checkLedger(t, "smq", st, ls.Sent)
	if st.Shed != 0 {
		t.Fatalf("PolicyStall shed %d tasks", st.Shed)
	}
	if st.Completed != uint64(tasks) {
		t.Fatalf("completed %d of %d", st.Completed, tasks)
	}
	if st.Stalls == 0 || st.StallDur == 0 {
		t.Fatalf("overloaded run recorded no backpressure (stalls=%d dur=%v)",
			st.Stalls, st.StallDur)
	}
}

// TestServeCloseDuringStall closes the channel while a batch is held
// above the high watermark: every request is in the channel, and the
// channel closed, before the service starts, so the final drain finds the
// close together with a short batch that the stall has to hold. The
// stream must not end until that batch has been admitted.
func TestServeCloseDuringStall(t *testing.T) {
	const n = 30*ingestBatch + 17
	for _, name := range []string{"smq", "mq", "klsm"} {
		t.Run(name, func(t *testing.T) {
			s, err := Build(name, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := New(s, Config{Workers: 2, HighWater: 8, LowWater: 2, Policy: PolicyStall})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				svc.In() <- Request{Cost: 2000, Enq: int64(i)}
			}
			close(svc.In())
			svc.Start()
			st := svc.Wait()
			checkLedger(t, name, st, n)
			if st.Stalls == 0 || st.Shed != 0 || st.Completed != n {
				t.Fatalf("%s: stalls %d, shed %d, completed %d of %d", name, st.Stalls, st.Shed, st.Completed, n)
			}
		})
	}
}

// TestNewRejectsInvalidConfig: an invalid Config is an error from New,
// never a panic and never a service that silently misbehaves.
func TestNewRejectsInvalidConfig(t *testing.T) {
	s, err := Build("smq", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Build("smq", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    sched.Scheduler[Request]
		cfg  Config
		want string
	}{
		{"defaults", s, Config{Workers: 4}, ""},
		{"one worker", s, Config{Workers: 1}, "Workers = 1"},
		{"MinWorkers negative", s, Config{Workers: 4, MinWorkers: -1}, "MinWorkers = -1"},
		{"MinWorkers takes the ingest slot", s, Config{Workers: 4, MinWorkers: 4}, "MinWorkers = 4"},
		{"LowWater above HighWater", s, Config{Workers: 4, HighWater: 8, LowWater: 9}, "LowWater 9"},
		{"LowWater negative", s, Config{Workers: 4, LowWater: -1}, "LowWater -1"},
		{"Tenants negative", s, Config{Workers: 4, Tenants: -2}, "Tenants = -2"},
		{"TasksPerWorker negative", s, Config{Workers: 4, TasksPerWorker: -1}, "TasksPerWorker = -1"},
		{"InBuffer negative", s, Config{Workers: 4, InBuffer: -1}, "InBuffer = -1"},
		{"scheduler of another size", s3, Config{Workers: 4}, "scheduler has 3 worker slots"},
	} {
		svc, err := New(tc.s, tc.cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || svc != nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: New = (%v, %v), want an error containing %q", tc.name, svc, err, tc.want)
		}
	}
}

// TestServeElasticParking drives a trickle through an oversized pool:
// the surplus workers must park (and the run must still drain cleanly
// through the close-time wakeup).
func TestServeElasticParking(t *testing.T) {
	st, ls := runService(t, "smq",
		Config{Workers: 6, MinWorkers: 1, Tenants: 1},
		LoadConfig{Rate: 2000, Tasks: 400, Tenants: 1,
			CostMin: 20, CostMax: 100, Seed: 5})
	checkLedger(t, "smq", st, ls.Sent)
	if st.Parks == 0 {
		t.Fatal("idle surplus workers never parked")
	}
	if st.MeanActiveWorkers >= float64(5) {
		t.Fatalf("mean active workers %.2f: pool did not shrink under a trickle",
			st.MeanActiveWorkers)
	}
}

// TestServeQuiescesEmpty closes the stream without offering any load:
// the service must shut down cleanly (this deadlocked under any
// protocol that needed at least one task to propagate the close).
func TestServeQuiescesEmpty(t *testing.T) {
	s, err := Build("mq", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(s, Config{Workers: 3, Tenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	close(svc.In())
	done := make(chan *Stats, 1)
	go func() { done <- svc.Wait() }()
	select {
	case st := <-done:
		if st.Ingested != 0 || st.Completed != 0 || st.Shed != 0 {
			t.Fatalf("empty run reports work: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("empty service did not quiesce")
	}
}

// TestServeIdleCPU pins the satellite bugfix's observable effect: an
// idle service (started, zero offered load) must not busy-spin. The
// pre-fix Backoff degenerated to a bare Gosched loop, pinning ~100% of
// a core per awake worker; with the sleep tier and parking the idle
// fraction sits near zero. The 0.5 bound is deliberately loose for
// noisy CI machines while still rejecting any spin regression.
func TestServeIdleCPU(t *testing.T) {
	if _, ok := processCPU(); !ok {
		t.Skip("no process CPU accounting on this platform")
	}
	s, err := Build("smq", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(s, Config{Workers: 4, Tenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	frac := MeasureIdleCPU(200 * time.Millisecond)
	close(svc.In())
	svc.Wait()
	if frac < 0 {
		t.Skip("idle CPU unmeasurable")
	}
	if frac > 0.5 {
		t.Fatalf("idle service burned %.0f%% CPU: busy-spin regression", frac*100)
	}
}

// TestServeRunBench exercises the report glue end to end on a tiny
// run: the generated report must carry a serve entry per scheduler and
// pass ValidateBench (RunBench validates internally).
func TestServeRunBench(t *testing.T) {
	rep, err := RunBench(BenchConfig{
		Schedulers: []string{"smq", "coarse"},
		Rate:       100000, Tasks: 5000, Tenants: 2, Skew: 0.99,
		Workers: 3, GeneratedBy: "serve_test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Serve) != 2 {
		t.Fatalf("report carries %d serve entries, want 2", len(rep.Serve))
	}
	for _, sr := range rep.Serve {
		if sr.Completed+sr.Shed != uint64(5000) {
			t.Fatalf("%s: %d accounted of 5000", sr.Scheduler, sr.Completed+sr.Shed)
		}
	}
}

// TestValidateBenchRejects feeds the validator one broken invariant at
// a time, starting from a report RunBench produced (and so accepted):
// the ledger, the per-tenant sums and the percentile order are the
// claims an artifact on disk is trusted for.
func TestValidateBenchRejects(t *testing.T) {
	base, err := RunBench(BenchConfig{
		Schedulers: []string{"smq", "coarse"},
		Rate:       100000, Tasks: 2000, Tenants: 2, Skew: 0.99,
		Workers: 3, GeneratedBy: "serve_test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Serve[0].PerTenant[0].Completed == 0 {
		t.Fatal("tenant 0 completed nothing; the percentile cases below would be vacuous")
	}
	for _, tc := range []struct {
		name string
		mut  func(r *BenchReport)
		want string
	}{
		{"accepted as generated", func(*BenchReport) {}, ""},
		{"lost task", func(r *BenchReport) { r.Serve[0].Ingested++ }, "LOST TASKS"},
		{"per-tenant completed off", func(r *BenchReport) { r.Serve[0].PerTenant[0].Completed-- }, "do not sum to run totals"},
		{"per-tenant shed off", func(r *BenchReport) { r.Serve[1].PerTenant[1].Shed++ }, "do not sum to run totals"},
		{"p50 above p99", func(r *BenchReport) {
			ten := &r.Serve[0].PerTenant[0]
			ten.P50Ns = ten.P99Ns + 1
		}, "non-monotone latency percentiles"},
		{"p99 above p99.9", func(r *BenchReport) {
			ten := &r.Serve[0].PerTenant[0]
			ten.P99Ns = ten.P999Ns + 1
		}, "non-monotone latency percentiles"},
		{"missing percentile", func(r *BenchReport) { r.Serve[0].PerTenant[0].P999Ns = 0 }, "missing latency percentiles"},
		{"tenant count", func(r *BenchReport) { r.Serve[0].Tenants = 3 }, "per-tenant entries"},
		{"duplicate scheduler", func(r *BenchReport) { r.Serve[1].Scheduler = r.Serve[0].Scheduler }, "duplicate serve scheduler"},
		{"no runs", func(r *BenchReport) { r.Serve = nil }, "no serve results"},
		{"header", func(r *BenchReport) { r.GOMAXPROCS = 0 }, "gomaxprocs"},
	} {
		r := *base
		r.Serve = make([]ServeResult, len(base.Serve))
		for i, sr := range base.Serve {
			sr.PerTenant = append([]TenantServeResult(nil), sr.PerTenant...)
			r.Serve[i] = sr
		}
		tc.mut(&r)
		err := ValidateBench(&r)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}
