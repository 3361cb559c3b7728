package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/sched"
)

// scripted is a one-worker fake scheduler whose calls take a known time:
// Pop spins for popCost and answers from the script, Push spins for
// pushCost. It keeps its own account of the time spent in each, which a
// preempted spin lengthens for the fake and the tracer alike.
type scripted struct {
	popCost, pushCost time.Duration
	script            []bool // whether the i-th Pop finds a task
	pops              int
	popNs, pushNs     int64
}

// spin busy-waits for d and returns how long it really took.
func spin(d time.Duration) int64 {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
	return int64(time.Since(t0))
}

func (f *scripted) Workers() int                 { return 1 }
func (f *scripted) Worker(int) sched.Worker[int] { return f }
func (f *scripted) Stats() sched.Stats           { return sched.Stats{} }
func (f *scripted) Push(uint64, int)             { f.pushNs += spin(f.pushCost) }
func (f *scripted) PushN(ps []uint64, _ []int)   { f.pushNs += spin(f.pushCost) }
func (f *scripted) PopN(dst []sched.Task[int]) int {
	if _, _, ok := f.Pop(); ok {
		return 1
	}
	return 0
}

func (f *scripted) Pop() (uint64, int, bool) {
	f.popNs += spin(f.popCost)
	ok := f.script[f.pops]
	f.pops++
	return 0, 0, ok
}

// driveScripted is a worker loop with known gaps: bodyCost after a pop
// that found a task, then a push; idleCost after an empty pop, except
// the last, which ends the worker span.
func driveScripted(w sched.Worker[int], pops int, bodyCost, idleCost time.Duration) (bodyNs, idleNs int64) {
	for i := 0; i < pops; i++ {
		if _, _, ok := w.Pop(); ok {
			bodyNs += spin(bodyCost)
			w.Push(0, 0)
		} else if i < pops-1 {
			idleNs += spin(idleCost)
		}
	}
	return bodyNs, idleNs
}

func TestTracerAttributesScriptedTimes(t *testing.T) {
	const (
		popCost, pushCost  = 200 * time.Microsecond, 100 * time.Microsecond
		bodyCost, idleCost = 300 * time.Microsecond, 400 * time.Microsecond
		pops               = 80
	)
	script := make([]bool, pops)
	found := 0
	for i := range script {
		if script[i] = i%4 != 3; script[i] { // ends on an empty pop
			found++
		}
	}
	for _, bufCap := range []int{spanCap, 16} { // 16 forces most spans through the overflow path
		tr := &tracer{bufs: [][]span{make([]span, bufCap)}}
		run := tr.begin("test", "scripted", 0, 1)
		fake := &scripted{popCost: popCost, pushCost: pushCost, script: script}
		bodyNs, idleNs := driveScripted(traced[int](fake, run).Worker(0), pops, bodyCost, idleCost)
		got := run.attribute()
		for _, c := range []struct {
			name      string
			got, want int64
		}{{"pop", got.pop, fake.popNs}, {"push", got.push, fake.pushNs}, {"idle", got.idle, idleNs}, {"body", got.body, bodyNs}} {
			if c.want == 0 || math.Abs(float64(c.got-c.want)) > 0.05*float64(c.want) {
				t.Errorf("buffer %d: %s = %v, the script spent %v: want within 5%%", bufCap, c.name, time.Duration(c.got), time.Duration(c.want))
			}
		}
		if sum := got.pop + got.push + got.idle + got.body; sum != got.total {
			t.Errorf("buffer %d: pop+push+idle+body = %d ns, worker span %d ns", bufCap, sum, got.total)
		}
		if got.spans != int64(pops+found) || got.emptyPops != int64(pops-found) || got.popTasks != int64(found) {
			t.Errorf("buffer %d: %d spans, %d empty pops, %d popped tasks; want %d, %d, %d",
				bufCap, got.spans, got.emptyPops, got.popTasks, pops+found, pops-found, found)
		}
	}
}

// TestTracedRealRun puts the decorator around a real smq: the hold
// repetition's own conservation check must still pass, and the four
// shares must cover the worker spans.
func TestTracedRealRun(t *testing.T) {
	in := newHoldInput(7, 20*time.Millisecond)
	run := newTracer(2).begin("hold", "smq", 0, 2)
	res := in.run("smq", 2, 7, 0, run)
	if res.err != nil {
		t.Fatalf("traced hold run lost or duplicated a task: %v", res.err)
	}
	lt := run.attribute()
	if lt.popTasks != int64(res.useful) {
		t.Errorf("tracer saw %d popped tasks, the run counted %d pairs", lt.popTasks, res.useful)
	}
	shares := float64(lt.pop+lt.push+lt.idle+lt.body) / float64(lt.total)
	if lt.total == 0 || math.Abs(shares-1) > 0.01 {
		t.Errorf("shares sum to %.4f of %d ns worker time", shares, lt.total)
	}
}

func TestUntracedPathHandsOverRawScheduler(t *testing.T) {
	raw := build[uint32]("smq", 2, 1)
	if got := traced(raw, nil); got != raw {
		t.Errorf("traced(s, nil) = %T, want the scheduler itself", got)
	}
	if _, wrapped := traced(raw, (&tracer{bufs: make([][]span, 2)}).begin("w", "smq", 0, 2)).(*tracedScheduler[uint32]); !wrapped {
		t.Error("traced(s, run) did not wrap the scheduler")
	}
}

// TestCycleRates checks that a cycle's rate is taken over its own
// repetitions, a failed one left out, and not over its neighbours'.
func TestCycleRates(t *testing.T) {
	rep := func(cycle int, useful uint64, seconds float64) sample {
		return sample{repResult: repResult{useful: useful, seconds: seconds}, cycle: cycle}
	}
	got := cycleRates([]sample{
		rep(0, 100, 1), rep(0, 300, 1), rep(0, 100, 1), rep(0, 300, 1),
		rep(1, 50, 1), rep(1, 50, 1), rep(1, 50, 1), // one repetition of four failed
		rep(2, 400, 2),
	})
	want := []float64{200, 50, 200}
	if len(got) != len(want) {
		t.Fatalf("cycleRates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cycle %d: rate %v, want %v", i, got[i], want[i])
		}
	}
}
