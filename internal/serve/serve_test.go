package serve

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/zoo"
)

// lineup is the serving tests' selection of the zoo registry, in zoo
// order (the lock-free cbpq rides directly after the coarse exact
// baseline). build accepts any zoo name.
var lineup = []string{"coarse", "cbpq", "mq", "mq-batch", "emq", "smq", "klsm", "obim", "spray"}

// build makes the named zoo scheduler, seed 1, at the Request payload.
func build(t *testing.T, name string, workers int) sched.Scheduler[Request] {
	t.Helper()
	spec, ok := zoo.Lookup[Request](name)
	if !ok {
		t.Fatalf("zoo has no %q", name)
	}
	return spec.Make(workers, 1)
}

// runService builds the named scheduler, runs one open-loop load
// through a Service, and returns the run's stats plus the generator's.
func runService(t *testing.T, name string, cfg Config, load LoadConfig) (*Stats, LoadStats) {
	t.Helper()
	svc, err := New(build(t, name, cfg.Workers), cfg)
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

// checkLedger asserts that every request sent was ingested and that the
// run's ledger balances.
func checkLedger(t *testing.T, name string, st *Stats, sent int) {
	t.Helper()
	if st.Ingested != uint64(sent) {
		t.Fatalf("%s: ingested %d of %d sent", name, st.Ingested, sent)
	}
	if err := st.CheckLedger(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestCheckLedgerRejects breaks the ledger of a balanced run one count
// at a time: a lost task, a per-tenant total that disagrees with the
// run's and a latency histogram that misses a completion must each be an
// error.
func TestCheckLedgerRejects(t *testing.T) {
	base, ls := runService(t, "smq", Config{Workers: 3, Tenants: 2},
		LoadConfig{Rate: 100000, Tasks: 2000, Tenants: 2, Skew: 0.99, Seed: 1})
	checkLedger(t, "smq", base, ls.Sent)
	for _, tc := range []struct {
		name string
		mut  func(st *Stats)
		want string
	}{
		{"lost task", func(st *Stats) { st.Ingested++ }, "LOST TASKS"},
		{"per-tenant completed off", func(st *Stats) { st.Completed--; st.Ingested-- }, "do not sum to run totals"},
		{"per-tenant shed off", func(st *Stats) { st.PerTenant[1].Shed++ }, "do not sum to run totals"},
		{"latency sample missing", func(st *Stats) {
			st.PerTenant[1].Completed++
			st.Completed++
			st.Ingested++
		}, "latency samples for"},
	} {
		st := *base
		st.PerTenant = slices.Clone(base.PerTenant)
		tc.mut(&st)
		if err := st.CheckLedger(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckLedger = %v, want an error containing %q", tc.name, err, tc.want)
		}
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
	for _, name := range lineup {
		t.Run(name, func(t *testing.T) {
			st, ls := runService(t, name,
				Config{Workers: 4, Tenants: 3},
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
		Config{Workers: 2, Tenants: 2, HighWater: 64, LowWater: 16, Policy: PolicyShed},
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
		Config{Workers: 2, Tenants: 2, HighWater: 64, LowWater: 16, Policy: PolicyStall},
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
//
// The stall is the premise, so the test makes it hold: the pool worker,
// which may ingest whenever its PopN comes back empty and pending is at
// or below the high watermark, is kept out of PopN — and so off the
// channel — until worker 0 has opened an episode. Otherwise, with worker
// 0 descheduled, the pool worker can drain the channel in watermark-sized
// steps and no episode ever opens.
func TestServeCloseDuringStall(t *testing.T) {
	const n = 30*ingestBatch + 17
	for _, name := range []string{"smq", "mq", "klsm"} {
		t.Run(name, func(t *testing.T) {
			gated := &stallGate{Scheduler: build(t, name, 2)}
			svc, err := New(gated, Config{Workers: 2, HighWater: 8, LowWater: 2, Policy: PolicyStall})
			if err != nil {
				t.Fatal(err)
			}
			gated.svc = svc
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

// stallGate wraps a scheduler so that the pool workers' first PopN waits
// until worker 0 has opened an admission episode. The wait is bounded: a
// service that never opens one fails the test's Stalls check instead of
// hanging it.
type stallGate struct {
	sched.Scheduler[Request]
	svc *Service
}

func (s *stallGate) Worker(i int) sched.Worker[Request] {
	if i == 0 {
		return s.Scheduler.Worker(i)
	}
	return &stallGateWorker{Worker: s.Scheduler.Worker(i), s: s}
}

type stallGateWorker struct {
	sched.Worker[Request]
	s      *stallGate
	opened bool
}

func (w *stallGateWorker) PopN(dst []sched.Task[Request]) int {
	if !w.opened {
		deadline := time.Now().Add(10 * time.Second)
		for w.s.svc.episodes.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		w.opened = true
	}
	return w.Worker.PopN(dst)
}

// TestNewRejectsInvalidConfig: an invalid Config is an error from New,
// never a panic and never a service that silently misbehaves.
func TestNewRejectsInvalidConfig(t *testing.T) {
	s, s3 := build(t, "smq", 4), build(t, "smq", 3)
	for _, tc := range []struct {
		name string
		s    sched.Scheduler[Request]
		cfg  Config
		want string
	}{
		{"defaults", s, Config{Workers: 4}, ""},
		{"one worker", s, Config{Workers: 1}, "Workers = 1"},
		{"LowWater above HighWater", s, Config{Workers: 4, HighWater: 8, LowWater: 9}, "LowWater 9"},
		{"LowWater negative", s, Config{Workers: 4, LowWater: -1}, "LowWater -1"},
		{"Tenants negative", s, Config{Workers: 4, Tenants: -2}, "Tenants = -2"},
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
		Config{Workers: 6, Tenants: 1},
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
	svc, err := New(build(t, "mq", 3), Config{Workers: 3, Tenants: 2})
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

// TestGenerateRejectsInvalidLoad: a load the samplers or the schedule
// cannot represent is an error from Generate, never a panic inside a
// sampler and never a generator that does not return. Each row runs
// under a deadline.
func TestGenerateRejectsInvalidLoad(t *testing.T) {
	valid := LoadConfig{Rate: 1e6, Tasks: 10}
	for _, tc := range []struct {
		name string
		mut  func(c *LoadConfig)
		want string
	}{
		{"valid", func(*LoadConfig) {}, ""},
		{"Rate NaN", func(c *LoadConfig) { c.Rate = math.NaN() }, "load rate NaN"},
		{"Rate tiny", func(c *LoadConfig) { c.Rate = 1e-300 }, "load rate 1e-300"},
		{"Rate +Inf", func(c *LoadConfig) { c.Rate = math.Inf(1) }, "load rate +Inf"},
		{"Rate zero", func(c *LoadConfig) { c.Rate = 0 }, "load rate 0"},
		{"Tasks zero", func(c *LoadConfig) { c.Tasks = 0 }, "load tasks 0"},
		{"Skew negative", func(c *LoadConfig) { c.Skew = -1 }, "tenant skew -1"},
		{"Skew NaN", func(c *LoadConfig) { c.Skew = math.NaN() }, "tenant skew NaN"},
		{"CostMin NaN", func(c *LoadConfig) { c.CostMin, c.CostMax = math.NaN(), 100 }, "cost range [NaN, 100]"},
		{"CostMin negative", func(c *LoadConfig) { c.CostMin, c.CostMax = -1, 100 }, "cost range [-1, 100]"},
		{"CostMax below CostMin", func(c *LoadConfig) { c.CostMin, c.CostMax = 100, 50 }, "cost range [100, 50]"},
		{"CostMax +Inf", func(c *LoadConfig) { c.CostMin, c.CostMax = 1, math.Inf(1) }, "cost range [1, +Inf]"},
		{"CostMax beyond uint32", func(c *LoadConfig) { c.CostMin, c.CostMax = 1, 1e10 }, "cost range [1, 1e+10]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			in := make(chan Request, cfg.Tasks+1)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				_, err := Generate(in, time.Now(), cfg)
				done <- err
			}()
			select {
			case err := <-done:
				switch {
				case tc.want == "" && err != nil:
					t.Fatal(err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("Generate = %v, want an error containing %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Generate did not return")
			}
		})
	}
}

// ingestWatch wraps a scheduler for the ingest tests. Worker 0's PopN
// sleeps, so worker 0 is slow to come back to the channel. Every PushN
// is counted per handle — the service's bodies emit nothing, so each is
// an ingest. A pool worker's PushN is an ingest inside an open admission
// episode if the episode was already open when the worker's PopN came
// back, so before its feed call checked the policy: the episode count
// was odd then and has not moved since. (A feeder that checked before
// worker 0 opened an episode pushes after a PopN that saw an even count.)
type ingestWatch struct {
	sched.Scheduler[Request]
	svc      *Service
	slow     time.Duration
	pushes   []atomic.Int64
	declined atomic.Int64 // pool PopNs that came back empty inside an episode
	inside   atomic.Int64 // pool ingests inside an open episode
}

func newIngestWatch(t *testing.T, name string, workers int, slow time.Duration) *ingestWatch {
	t.Helper()
	return &ingestWatch{Scheduler: build(t, name, workers), slow: slow, pushes: make([]atomic.Int64, workers)}
}

func (s *ingestWatch) Worker(i int) sched.Worker[Request] {
	return &ingestWatchWorker{Worker: s.Scheduler.Worker(i), s: s, wid: i}
}

type ingestWatchWorker struct {
	sched.Worker[Request]
	s        *ingestWatch
	wid      int
	episodes uint64 // the episode count when the last PopN returned
}

func (w *ingestWatchWorker) PopN(dst []sched.Task[Request]) int {
	if w.wid == 0 {
		time.Sleep(w.s.slow)
	}
	k := w.Worker.PopN(dst)
	w.episodes = w.s.svc.episodes.Load()
	if w.wid != 0 && k == 0 && w.episodes&1 != 0 {
		w.s.declined.Add(1)
	}
	return k
}

func (w *ingestWatchWorker) PushN(ps []uint64, vs []Request) {
	w.s.pushes[w.wid].Add(1)
	if w.wid != 0 && w.episodes&1 != 0 && w.s.svc.episodes.Load() == w.episodes {
		w.s.inside.Add(1)
	}
	w.Worker.PushN(ps, vs)
}

// runWatched preloads n requests, closes the channel and runs a Service
// over the watched scheduler to quiescence.
func runWatched(t *testing.T, w *ingestWatch, cfg Config, n int, cost uint32) *Stats {
	t.Helper()
	svc, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.svc = svc
	for i := 0; i < n; i++ {
		svc.In() <- Request{Cost: cost, Enq: int64(i)}
	}
	close(svc.In())
	svc.Start()
	st := svc.Wait()
	checkLedger(t, "watched", st, n)
	return st
}

// TestServeIdleWorkerIngests: while worker 0 is slow to come back to the
// channel, a pool worker whose PopN finds nothing drains the channel into
// its own handle.
func TestServeIdleWorkerIngests(t *testing.T) {
	for _, name := range []string{"smq", "mq"} {
		t.Run(name, func(t *testing.T) {
			w := newIngestWatch(t, name, 2, 200*time.Microsecond)
			runWatched(t, w, Config{Workers: 2}, 4000, 50)
			if w.pushes[1].Load() == 0 {
				t.Fatalf("the pool worker never ingested (worker 0 pushed %d batches)", w.pushes[0].Load())
			}
		})
	}
}

// TestServeNoIdleIngestDuringStall: with PolicyStall engaging again and
// again, the pool workers are offered the feed during stall episodes and
// leave the channel to worker 0 — no pool worker ingests while an episode
// is open — yet they ingest between episodes. Whether a run has a stall
// episode, a pool worker back empty inside one, and a pool ingest is up
// to how the goroutines are scheduled (a descheduled worker 0 lets the
// pool drain the channel below the watermark), so the test repeats the
// run until one has all three, asserting the check on every run.
func TestServeNoIdleIngestDuringStall(t *testing.T) {
	const attempts = 5
	for attempt := 1; ; attempt++ {
		w := newIngestWatch(t, "smq", 3, 0)
		st := runWatched(t, w, Config{Workers: 3, HighWater: 8, LowWater: 2, Policy: PolicyStall}, 30*ingestBatch, 20000)
		if n := w.inside.Load(); n != 0 {
			t.Fatalf("pool workers ingested %d times inside a stall episode", n)
		}
		pool := w.pushes[1].Load() + w.pushes[2].Load()
		if st.Stalls > 0 && w.declined.Load() > 0 && pool > 0 {
			t.Logf("run %d: %d stalls, pool ingests %d + %d, worker 0 %d, declined %d", attempt,
				st.Stalls, w.pushes[1].Load(), w.pushes[2].Load(), w.pushes[0].Load(), w.declined.Load())
			return
		}
		if attempt == attempts {
			t.Fatalf("no run of %d had a stall episode, a pool worker back empty inside one and a pool ingest "+
				"(last: %d stalls, %d declined, %d pool ingests): the check above is vacuous",
				attempts, st.Stalls, w.declined.Load(), pool)
		}
	}
}
