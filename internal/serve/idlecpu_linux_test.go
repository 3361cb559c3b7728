//go:build linux

package serve

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the process's cumulative user+system CPU time. It
// reads getrusage, which this test calls only on Linux, so the test is
// built only there.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestServeIdleCPU checks that an idle service (started, zero offered
// load) does not busy-spin. A Backoff that degenerates to a bare Gosched
// loop pins ~100% of a core per awake worker; with the sleep tier and
// parking the idle fraction sits near zero. The 0.5 bound is deliberately loose for
// noisy CI machines while still rejecting any spin regression.
func TestServeIdleCPU(t *testing.T) {
	svc, err := New(build(t, "smq", 4), Config{Workers: 4, Tenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	// CPU-seconds per wall-second over a window with no load offered:
	// what the idle service costs.
	before, start := processCPU(t), time.Now()
	time.Sleep(200 * time.Millisecond)
	frac := float64(processCPU(t)-before) / float64(time.Since(start))
	close(svc.In())
	svc.Wait()
	if frac > 0.5 {
		t.Fatalf("idle service burned %.0f%% CPU: busy-spin regression", frac*100)
	}
}
