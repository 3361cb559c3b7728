package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/contend"
	"repro/internal/sched"
)

// config is one invocation's choice of what to run.
type config struct {
	seed    uint64
	seconds float64  // wall time one workload measures for
	trace   bool     // the traced pass (per-layer metrics) instead of the end-to-end pass
	scheds  []string // the lineup, or the subset -sched names
	workers int      // W = min(GOMAXPROCS, 4)
	verbose bool     // print every repetition
	log     io.Writer
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// repTimeout fails a repetition that has not returned; its goroutines
// cannot be stopped, so nothing is measured after it. maxFailures stops
// a workload whose repetitions keep returning wrong outputs.
const (
	repTimeout  = 60 * time.Second
	maxFailures = 8
)

// Set-up is repeated so that setup_s is a median: at least minSetups
// times, and until setupTime has passed or maxSetups is reached. Three
// samples of the 0.3 s road set-up gave medians of 0.19 to 0.31 s from
// one process to the next; eight, each after a collection, hold it within
// a few percent.
const (
	minSetups = 5
	maxSetups = 25
	setupTime = 2500 * time.Millisecond
)

// Shares of -seconds the traced pass gives to its phases; the layer
// probes take what their fixed sizes need on top.
const (
	untracedShare  = 0.40
	tracedShare    = 0.25
	oneWorkerShare = 0.10
)

// sample is one repetition with what it cost the runtime.
type sample struct {
	repResult
	cycle      int  // the layout cycle of its phase it belongs to
	layoutHit  bool // every size class stood at the repetition's position
	allocBytes uint64
	gcPauseNs  uint64
	layers     layerTimes // traced repetitions only
}

func (s sample) tasksPerS() float64 { return ratio(float64(s.useful), s.seconds) }

// harness runs one workload.
type harness struct {
	cfg      config
	workload string
	in       input
	reps     int // repetitions started, which numbers them
	failed   int
	// Repetitions that returned a correct output, and those of them built
	// with every size class at the layout position asked for.
	measured, layoutHits int
	dead                 bool // a repetition timed out
}

// schedSeed derives a scheduler seed from the workload seed and the
// repetition number; zero would select a scheduler's default seeding.
func schedSeed(seed uint64, rep int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(rep+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	return z | 1
}

// layoutCycle is the number of heap layouts a cycle of repetitions
// steps through. Schedulers allocate their small per-worker objects back
// to back, and whether two of them share a cache line depends on where
// in its 64-byte rhythm the allocator's size class stands when the
// scheduler is built: for 48-byte objects every fourth position avoids
// it. With the same heap before every repetition that position is
// settled once per process, and smq on hold ran at 9 M or at 14 M pairs/s
// for a whole run depending on it. Stepping the position instead makes
// every run sample the same layouts in the same proportion.
const layoutCycle = 4

// layoutTries bounds the objects shiftLayout allocates per size class.
// Four in a row pass every position, but after a collection the free
// slots of a span are not in a row.
const layoutTries = 16

// layout is a set of small objects whose only job is to have been
// allocated.
type layout struct {
	ptrs  [][]*byte
	words [][]uint64
	hit   bool // every size class reached the position asked for
}

// shiftLayout moves the allocator to position k of its rhythm in each
// small size class (16 to 128 bytes, with and without pointers): it
// allocates objects of the class until one starts k object sizes into a
// cache line, which a class whose size does not divide the line reaches
// within four objects. The caller keeps the result alive. A class that
// did not get there (the goroutine changed processors in between) clears
// hit, which the harness counts.
func shiftLayout(k int) *layout {
	l := &layout{ptrs: make([][]*byte, 0, 64), words: make([][]uint64, 0, 64), hit: true}
	for words := 2; words <= 16; words += 2 {
		want := uintptr(k*8*words) % contend.CacheLineSize
		reached := false
		for try := 0; try < layoutTries && !reached; try++ {
			p := make([]*byte, words)
			l.ptrs = append(l.ptrs, p)
			reached = uintptr(unsafe.Pointer(&p[0]))%contend.CacheLineSize == want
		}
		l.hit = l.hit && reached
		reached = false
		for try := 0; try < layoutTries && !reached; try++ {
			w := make([]uint64, words)
			l.words = append(l.words, w)
			reached = uintptr(unsafe.Pointer(&w[0]))%contend.CacheLineSize == want
		}
		l.hit = l.hit && reached
	}
	return l
}

// rep runs one repetition under the timeout, with a collection before
// it so that every repetition starts from the same heap, shifted by
// shift positions. instance numbers the spec's repetitions within the
// phase: an input that holds several instances takes them in turn. GOGC
// stays at its default: users pay for collection, so the repetitions do.
func (h *harness) rep(spec string, workers, shift, instance int, tr *tracer) sample {
	var run *runSpan
	if tr != nil {
		run = tr.begin(h.workload, spec, h.reps, workers)
	}
	seed := schedSeed(h.cfg.seed, h.reps)
	h.reps++
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runtime.GC()
	type outcome struct {
		repResult
		hit bool
	}
	done := make(chan outcome, 1)
	go func() {
		// Shifted here, on the goroutine that builds the scheduler: the
		// allocator's positions are per processor.
		l := shiftLayout(shift)
		done <- outcome{h.in.run(spec, workers, seed, instance, run), l.hit}
		runtime.KeepAlive(l)
	}()
	var s sample
	select {
	case o := <-done:
		s.repResult, s.layoutHit = o.repResult, o.hit
	case <-time.After(repTimeout):
		s.err = fmt.Errorf("no result after %v", repTimeout)
		h.dead = true
	}
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if h.cfg.verbose {
		fmt.Fprintf(h.cfg.log, "rep %d %s layout %d (reached %v) instance %d: %.2f ms, %.4g tasks/s, work increase %.3f, %+v\n",
			h.reps-1, spec, shift, s.layoutHit, instance, s.seconds*1e3, s.tasksPerS(),
			ratio(float64(s.executed), float64(s.useful)), s.stats)
	}
	if s.err != nil {
		h.failed++
		fmt.Fprintf(h.cfg.log, "FAILED %s %s rep %d: %v\n", h.workload, spec, h.reps-1, s.err)
	} else {
		if run != nil {
			s.layers = run.attribute()
		}
		h.measured++
		if s.layoutHit {
			h.layoutHits++
		}
	}
	return s
}

// phase runs layout cycles of repetitions for budget of wall time, each
// cycle on the spec that has had the least time so far, so that the
// specs interleave and share the budget evenly whatever a repetition of
// each costs. Every spec gets at least one cycle. A spec's c-th cycle
// starts at instance c, so that an input's instances and the layouts
// meet in every combination. Failed repetitions are left out of the
// samples.
func (h *harness) phase(specs []string, workers int, budget time.Duration, tr *tracer) map[string][]sample {
	out := make(map[string][]sample, len(specs))
	spent := make(map[string]time.Duration, len(specs))
	cycles := make(map[string]int, len(specs))
	start := time.Now()
	for n := 0; !h.dead && h.failed < maxFailures; n++ {
		next := specs[n%len(specs)] // the first cycles go round the specs once
		if n >= len(specs) {
			if time.Since(start) >= budget {
				break
			}
			for _, s := range specs {
				if spent[s] < spent[next] {
					next = s
				}
			}
		}
		t0 := time.Now()
		c := cycles[next]
		for shift := 0; shift < layoutCycle; shift++ {
			if s := h.rep(next, workers, shift, c+shift, tr); s.err == nil {
				s.cycle = c
				out[next] = append(out[next], s)
			}
		}
		cycles[next]++
		spent[next] += time.Since(t0)
	}
	return out
}

// cycleRates is the throughput of each layout cycle: the useful tasks of
// its repetitions over their seconds. A cycle is the unit the reported
// median is taken over, because its repetitions differ by construction:
// the median repetition would sit in whichever layout is the commonest.
func cycleRates(samples []sample) []float64 {
	var rates []float64
	for i := 0; i < len(samples); {
		var useful, seconds float64
		j := i
		for ; j < len(samples) && samples[j].cycle == samples[i].cycle; j++ {
			useful += float64(samples[j].useful)
			seconds += samples[j].seconds
		}
		rates = append(rates, ratio(useful, seconds))
		i = j
	}
	return rates
}

// throughput is the useful tasks of all the repetitions over the seconds
// of all of them.
func throughput(samples []sample) float64 {
	var useful, seconds float64
	for _, s := range samples {
		useful += float64(s.useful)
		seconds += s.seconds
	}
	return ratio(useful, seconds)
}

func tasksPerS(samples []sample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.tasksPerS()
	}
	return xs
}

// runWorkload sets the workload up, measures it and returns its result.
func runWorkload(name string, cfg config) (result, error) {
	i := slices.IndexFunc(workloads, func(w workloadInfo) bool { return w.name == name })
	if i < 0 {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	setup := workloads[i].setup
	h := &harness{cfg: cfg, workload: name}
	var setupS []float64
	for t0 := time.Now(); len(setupS) < minSetups || (time.Since(t0) < setupTime && len(setupS) < maxSetups); {
		h.in = nil   // let the previous input go before the next is built,
		runtime.GC() // and give every set-up the same heap to start from
		s0 := time.Now()
		in, err := setup(cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		// A scheduler's construction is set-up too: building one of each
		// here makes work moved into the constructors show in setup_s.
		for _, s := range cfg.scheds {
			build[uint32](s, cfg.workers, cfg.seed)
		}
		setupS = append(setupS, time.Since(s0).Seconds())
		h.in = in
	}

	spinUp(cfg.workers, cfg.log)

	res := result{Metrics: map[string]value{}}
	report := func(m, unit string, v float64) { res.Metrics[m] = value{v, unit} }
	pass := "end-to-end pass, tracing off"
	if cfg.trace {
		pass = "traced pass"
	}
	fmt.Fprintf(cfg.log, "\n== %s  seed %d  W %d  %.0f s  %s ==\n", name, cfg.seed, cfg.workers, cfg.seconds, pass)
	timing := func(m, unit string, xs []float64) summary {
		s := summarize(xs)
		fmt.Fprintf(cfg.log, "%-28s %-4s median %-11.6g q1 %-11.6g q3 %-11.6g min %-11.6g max %-11.6g n %d\n",
			m, unit, s.median, s.q1, s.q3, s.min, s.max, s.n)
		return s
	}
	// rate prints the spread of the repetitions and of the layout cycles
	// and returns what is reported: the median cycle.
	rate := func(m string, samples []sample) float64 {
		timing(m, "1/s", tasksPerS(samples))
		v := timing("  by layout cycle", "1/s", cycleRates(samples)).median
		fmt.Fprintf(cfg.log, "%-28s %-4s %.6g over all repetitions\n", "", "", throughput(samples))
		return v
	}
	budget := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }

	if !cfg.trace {
		report("setup_s", "s", timing("setup_s", "s", setupS).median)
		samples := h.phase(cfg.scheds, cfg.workers, budget(1), nil)
		for _, s := range cfg.scheds {
			report("tasks_per_s."+s, "1/s", rate("tasks_per_s."+s, samples[s]))
		}
	} else {
		h.tracedPass(budget, report, rate)
	}
	registered := endToEnd()
	if cfg.trace {
		registered = perLayer()
	}
	for _, m := range registered {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(cfg.log, "%-36s %-14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	res.Attempted, res.Failed = h.reps, h.failed
	res.Correct = h.failed == 0
	fmt.Fprintf(cfg.log, "layouts: %d of %d measured repetitions were built at the position asked for\n", h.layoutHits, h.measured)
	fmt.Fprintf(cfg.log, "%s: %d repetitions attempted, %d failed\n", name, res.Attempted, res.Failed)
	return res, nil
}

// tracedPass measures the per-layer metrics: untraced repetitions for
// the run.* numbers and the overhead base, traced repetitions for the
// attribution, the flagship at one worker, and the layer probes.
func (h *harness) tracedPass(budget func(float64) time.Duration, report func(m, unit string, v float64),
	rate func(m string, samples []sample) float64) {
	cfg := h.cfg
	untraced := h.phase(cfg.scheds, cfg.workers, budget(untracedShare), nil)
	tr := newTracer(cfg.workers)
	tracedReps := h.phase(cfg.scheds, cfg.workers, budget(tracedShare), tr)
	for _, s := range cfg.scheds {
		var lt layerTimes
		for _, t := range tracedReps[s] {
			lt.merge(t.layers)
		}
		total := float64(lt.total)
		report("sched.pop_share."+s, "frac", ratio(float64(lt.pop), total))
		report("sched.push_share."+s, "frac", ratio(float64(lt.push), total))
		report("loop.idle_share."+s, "frac", ratio(float64(lt.idle), total))
		report("loop.body_share."+s, "frac", ratio(float64(lt.body), total))
		report("sched.pop_ns."+s, "ns", ratio(float64(lt.pop), float64(lt.popTasks)))
		report("sched.push_ns."+s, "ns", ratio(float64(lt.push), float64(lt.pushTasks)))
		report("sched.empty_pop_frac."+s, "frac", ratio(float64(lt.emptyPops), float64(lt.popCalls)))

		var st sched.Stats
		var useful, executed, alloc, pause float64
		for _, u := range untraced[s] {
			st.Add(u.stats)
			useful += float64(u.useful)
			executed += float64(u.executed)
			alloc += float64(u.allocBytes)
			pause += float64(u.gcPauseNs)
		}
		report("sched.work_increase."+s, "ratio", ratio(executed, useful))
		report("sched.steal_task_frac."+s, "frac", ratio(float64(st.StolenTask), float64(st.Pops)))
		report("sched.lock_fails_per_ktask."+s, "1/ktask", ratio(1000*float64(st.LockFails), executed))
		report("sched.eliminations_per_ktask."+s, "1/ktask", ratio(1000*float64(st.Eliminations), executed))
		report("run.alloc_bytes_per_task."+s, "B/task", ratio(alloc, useful))
		report("run.gc_pause_ms."+s, "ms", ratio(pause/1e6, float64(len(untraced[s]))))
		report("run.time_iqr_frac."+s, "frac", summarize(tasksPerS(untraced[s])).iqrFrac())
		off := rate("untraced tasks_per_s."+s, untraced[s])
		on := rate("traced   tasks_per_s."+s, tracedReps[s])
		report("trace.overhead_frac."+s, "frac", ratio(off, on)-1)
		fmt.Fprintf(cfg.log, "  %s: pop %.3f push %.3f idle %.3f body %.3f of %.3f s worker time, %d spans\n", s,
			ratio(float64(lt.pop), total), ratio(float64(lt.push), total), ratio(float64(lt.idle), total),
			ratio(float64(lt.body), total), total/1e9, lt.spans)
	}
	tr = nil // release the span buffers before the remaining phases

	one := h.phase([]string{"smq"}, 1, budget(oneWorkerShare), nil)
	report("scale.tasks_per_s_w1.smq", "1/s", rate("scale.tasks_per_s_w1.smq", one["smq"]))
	report("seq.time_s", "s", h.in.seqSeconds())

	probeSeed := schedSeed(cfg.seed, h.reps)
	zoo, errs := zooProbes(probeSeed, cfg.workers)
	h.reps += len(zoo)
	h.failed += len(errs)
	for _, err := range errs {
		fmt.Fprintf(cfg.log, "FAILED zoo probe: %v\n", err)
	}
	for m, v := range zoo {
		report(m, "1/s", v)
	}
	for m, v := range layerProbes(newHoldInput(probeSeed, 0).prefill, probeSeed) {
		report(m, "ns", v)
	}
	h.serveProbes(report)
	report("run.peak_rss_mb", "MB", peakRSSMB())
	report("run.layout_hit_frac", "frac", ratio(float64(h.layoutHits), float64(h.measured)))
}

// serveProbes reports the serve layer's own numbers from one drain with
// a timed feeder and one open-loop run of the flagship: on serve-drain
// over the workload's requests, elsewhere over a smaller probe set.
func (h *harness) serveProbes(report func(m, unit string, v float64)) {
	in, ok := h.in.(*serveInput)
	if !ok {
		in = newServeInput(h.cfg.seed, serveProbeReq)
	}
	res, st, feedWait := in.drain("smq", h.cfg.workers, schedSeed(h.cfg.seed, h.reps), nil, true)
	p50, p99, lag, err := in.openLoop("smq", h.cfg.workers, schedSeed(h.cfg.seed, h.reps+1))
	h.reps += 2
	for _, e := range []error{res.err, err} {
		if e != nil {
			h.failed++
			fmt.Fprintf(h.cfg.log, "FAILED serve probe: %v\n", e)
		}
	}
	if st == nil {
		return
	}
	report("serve.feed_wait_share", "frac", ratio(feedWait.Seconds(), res.seconds))
	report("serve.stall_frac", "frac", ratio(st.StallDur.Seconds(), st.Duration.Seconds()))
	report("serve.parks", "count", float64(st.Parks))
	report("serve.mean_active_workers", "count", st.MeanActiveWorkers)
	report("serve.sojourn_p50_us", "us", float64(p50.Nanoseconds())/1e3)
	report("serve.sojourn_p99_us", "us", float64(p99.Nanoseconds())/1e3)
	report("serve.gen_max_lag_us", "us", float64(lag.Nanoseconds())/1e3)
}

// burn is a fixed piece of arithmetic, some tens of milliseconds long.
func burn() time.Duration {
	t0 := time.Now()
	x := uint64(t0.UnixNano())
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink.Store(x) // keeps the loop alive
	return time.Since(t0)
}

// spinUp waits until W goroutines really run side by side. A process
// that has been single-threaded so far gets its further threads started
// on the processor it is on, and the kernel takes up to a second to move
// them: repetitions in that second measure two workers sharing one
// processor.
func spinUp(workers int, log io.Writer) {
	single := burn()
	var slowest time.Duration
	for try := 0; try < 50; try++ {
		took := make([]time.Duration, workers)
		var wg sync.WaitGroup
		for i := range took {
			wg.Add(1)
			go func() {
				defer wg.Done()
				took[i] = burn()
			}()
		}
		wg.Wait()
		slowest = slices.Max(took)
		if float64(slowest) < 1.15*float64(single) {
			fmt.Fprintf(log, "spin-up: %d workers in parallel after %d tries (%.1f ms against %.1f ms alone)\n",
				workers, try+1, float64(slowest.Microseconds())/1e3, float64(single.Microseconds())/1e3)
			return
		}
	}
	fmt.Fprintf(log, "WARNING: %d workers do not run in parallel: %.1f ms side by side, %.1f ms alone\n",
		workers, float64(slowest.Microseconds())/1e3, float64(single.Microseconds())/1e3)
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// preflight records the machine and refuses to measure on one that
// cannot run W workers in parallel.
func preflight(log io.Writer) (workers int, err error) {
	workers = min(runtime.GOMAXPROCS(0), 4)
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		load, _, _ = strings.Cut(string(data), " ")
	}
	fmt.Fprintf(log, "preflight: nproc %d  GOMAXPROCS %d  %s  load1 %s  W %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), load, workers)
	if workers > runtime.NumCPU() {
		return 0, fmt.Errorf("W = %d workers on %d CPUs would time oversubscription, not schedulers", workers, runtime.NumCPU())
	}
	if workers < 2 {
		return 0, errors.New("the benchmark measures parallel schedulers and needs at least 2 CPUs")
	}
	if l, err := strconv.ParseFloat(load, 64); err == nil && l > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(log, "WARNING: load average %.2f exceeds half of %d cores; timings will be noisy\n", l, runtime.NumCPU())
	}
	return workers, nil
}
