package sched

import (
	"testing"
	"time"
)

// idleUntil runs one idle episode on b until pred holds or limit has
// passed, and reports how long it ran and how many steps it took.
func idleUntil(b *Backoff, limit time.Duration, pred func() bool) (time.Duration, int) {
	start, steps := time.Now(), 0
	for !pred() && time.Since(start) < limit {
		b.Wait()
		steps++
	}
	return time.Since(start), steps
}

// TestBackoffSleepTierCapsIterationRate proves the idle-CPU fix: a
// worker stuck in Wait must end up sleeping, so once the spin budget is
// spent a fixed wall-clock window admits only a bounded number of
// backoff steps. A busy-spin/Gosched loop runs hundreds of thousands of
// iterations in the same window (100% of a core); the sleep tier caps it
// near window/1ms.
func TestBackoffSleepTierCapsIterationRate(t *testing.T) {
	var b Backoff
	if idleUntil(&b, time.Second, b.Sleeping); !b.Sleeping() {
		t.Fatal("Backoff not in the sleep tier after a second of sustained idleness")
	}
	const window = 100 * time.Millisecond
	_, steps := idleUntil(&b, window, func() bool { return false })
	// Sleep steps of >= 20µs each: the absolute ceiling is 100ms/20µs =
	// 5000, and after the ramp reaches the 1ms cap the steady rate is
	// ~100. Anything spin-like is two orders of magnitude more.
	if steps > 5000 {
		t.Fatalf("Backoff ran %d steps in %v of the sleep tier: not sleeping (busy-spin regression)", steps, window)
	}
}

// TestBackoffEscalatesByElapsedTime pins what decides the tier: how long
// the idle episode has lasted, not how many polls it took. An episode
// shorter than the spin budget never reports Sleeping, however many
// steps fit in it; one that outlasts the budget does, within a step.
func TestBackoffEscalatesByElapsedTime(t *testing.T) {
	var b Backoff
	elapsed, steps := idleUntil(&b, backoffSpinBudget/4, b.Sleeping)
	if b.Sleeping() && elapsed < backoffSpinBudget {
		t.Fatalf("Sleeping after %v (%d steps), inside the %v budget", elapsed, steps, backoffSpinBudget)
	}
	b.Reset()
	elapsed, steps = idleUntil(&b, time.Second, b.Sleeping)
	if !b.Sleeping() {
		t.Fatalf("not Sleeping after %v (%d steps) of one episode", elapsed, steps)
	}
	if elapsed < backoffSpinBudget {
		t.Fatalf("Sleeping after %v (%d steps): the budget is %v", elapsed, steps, backoffSpinBudget)
	}
}

// TestBackoffResetReturnsToSpinTier checks that a successful pop resets
// the escalation: the first Wait after Reset must be a cheap busy pause,
// not a sleep — otherwise every burst would pay a wake-up tax per task.
func TestBackoffResetReturnsToSpinTier(t *testing.T) {
	var b Backoff
	if idleUntil(&b, time.Second, b.Sleeping); !b.Sleeping() {
		t.Fatal("expected the sleep tier after a second of one episode")
	}
	b.Reset()
	if b.Sleeping() {
		t.Fatal("Reset did not clear the sleep tier")
	}
	start := time.Now()
	b.Wait()
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Fatalf("first Wait after Reset took %v: should be a busy pause, not a sleep", d)
	}
	// The new episode gets a whole budget of its own.
	if elapsed, _ := idleUntil(&b, backoffSpinBudget/4, b.Sleeping); b.Sleeping() && elapsed < backoffSpinBudget {
		t.Fatalf("Sleeping %v into the episode after Reset", elapsed)
	}
}

// TestPendingQuiescenceVsEmptiness pins the split contract: Done is
// emptiness (momentarily idle), Quiesced is drained-and-closed.
func TestPendingQuiescenceVsEmptiness(t *testing.T) {
	var p Pending
	if p.Load() != 0 {
		t.Fatal("zero Pending should report Done (empty)")
	}
	if p.Quiesced() {
		t.Fatal("unclosed Pending must never report Quiesced, even when empty")
	}
	p.Inc(2)
	if p.Load() == 0 || p.Quiesced() {
		t.Fatal("in-flight tasks: neither Done nor Quiesced")
	}
	p.Close()
	if !p.closed.Load() {
		t.Fatal("Closed not visible after Close")
	}
	if p.Quiesced() {
		t.Fatal("closed but undrained Pending must not report Quiesced")
	}
	p.Dec()
	p.Dec()
	if p.Load() != 0 || !p.Quiesced() {
		t.Fatal("closed and drained: both Done and Quiesced must hold")
	}
	// Workers may still register follow-on tasks after Close (Inc
	// before the parent's Dec keeps the count positive in real runs).
	p.Inc(1)
	if p.Quiesced() {
		t.Fatal("follow-on task after Close must suppress Quiesced")
	}
	p.Dec()
	if !p.Quiesced() {
		t.Fatal("drained again: Quiesced must hold")
	}
}
