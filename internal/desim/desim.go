// Package desim runs discrete-event simulations through the scheduler
// zoo: every simulation event is a scheduler task whose priority is its
// timestamp, so "pop the highest-priority task" is "execute the next
// event", and a relaxed scheduler executes a slightly-out-of-order but
// massively parallel event loop.
//
// The correctness story is conservative parallel discrete-event
// simulation translated into rank-error terms. A classic conservative
// PDES engine may execute an event only when no smaller-timestamp event
// can still appear — its lookahead window. Here the window comes from
// the scheduler's own guarantee: a scheduler whose rank error is
// bounded by B never pops an element with more than B smaller-priority
// elements pending, so a model whose events tolerate executing up to B
// ranks early (Lookahead >= B) runs correctly with NO coordination
// beyond the scheduler itself. The engine checks the contract at run
// time: every pop measures how many smaller-timestamp events were
// registered (its lead), and a lead beyond the window — plus a
// documented concurrency slack — is counted as a causality violation.
// For k-LSM the bound is the worst-case (P−1)·k+P of Wimmer et al.;
// for the coarse exact queue it is 0; for Multi-Queue-family schedulers
// it is the expectation-scale bound of Theorem 1 (violations possible
// but rare); OBIM-style schedulers have no usable bound.
//
// Models must make event outcomes independent of execution order within
// the window (the cluster model's per-station FIFO recurrence, the DAG
// model's atomic-max completion propagation); the engine then certifies
// runs by comparing order-independent checksums against the exact
// coarse baseline.
package desim

import (
	"fmt"
	"time"

	"repro/internal/contend"
	"repro/internal/sched"
)

// Event is one simulation event: a timestamp, a kind tag, and two
// model-interpreted payload words. It is deliberately a small value
// type (16 bytes) so millions of events stream through the schedulers'
// buffers without allocation.
type Event struct {
	// T is the simulated timestamp; the engine pushes the event at
	// priority T.
	T    uint64
	Kind uint8
	// A and B are model-defined payload words (station ids, vertex
	// ids, sequence numbers).
	A, B uint32
}

// Pusher schedules a future event. Handle implementations may only
// push events with timestamps >= the event being executed (no
// time travel); the engine registers the event with the causality
// window before it becomes poppable.
type Pusher func(ev Event)

// Model is a simulation model: it seeds the initial event population
// and executes events, possibly scheduling more.
type Model interface {
	// Name labels the model in reports ("cluster", "dag").
	Name() string
	// Horizon is an inclusive upper bound on every event timestamp the
	// model will ever push; the engine sizes the causality window with
	// it.
	Horizon() uint64
	// Seed pushes the initial events. It runs single-threaded before
	// the workers start.
	Seed(push Pusher)
	// Handle executes one event on the given worker, pushing any
	// events it causes. It must be safe for concurrent calls with
	// distinct worker ids, and event outcomes must not depend on
	// execution order within the lookahead window.
	Handle(worker int, ev Event, push Pusher)
	// Checksum digests the terminal simulation state in an
	// order-independent way: two runs that simulated the same system
	// must produce equal checksums regardless of scheduler.
	Checksum() uint64
}

// Config parameterizes a simulation run.
type Config struct {
	// Workers is the number of simulation workers (and scheduler
	// worker slots). Required.
	Workers int
	// Lookahead is the model's tolerance window in rank units: how
	// many smaller-timestamp pending events an executing event may run
	// ahead of. Negative disables the causality check entirely (no
	// window bookkeeping, maximum throughput).
	//
	// The violation threshold is Lookahead plus a slack of 4×Workers:
	// the window counter is read concurrently with other workers'
	// registers and in-flight executions, so even an exact scheduler
	// can observe up to O(Workers) transient smaller-timestamp
	// entries. The slack absorbs exactly that concurrency blur — it is
	// rank-error the scheduler did not cause.
	Lookahead int64
}

// slackFactor scales the per-worker concurrency slack added to the
// violation threshold (see Config.Lookahead).
const slackFactor = 4

// Stats summarizes a run.
type Stats struct {
	// Events is the number of events executed.
	Events uint64
	// Violations counts pops whose lead exceeded Lookahead + slack
	// (always 0 when the check is disabled).
	Violations uint64
	// MaxLead and MeanLead describe lookahead occupancy: the number of
	// registered smaller-timestamp events observed at pop time.
	MaxLead  int64
	MeanLead float64
	// Duration is the wall-clock time of the parallel section.
	Duration time.Duration
}

// workerStats is one worker's causality accounting, kept in a slice of
// contend.Padded elements so neighbouring workers' counters do not
// share a cache line.
type workerStats struct {
	violations uint64
	leadSum    int64
	leadMax    int64
}

// Run drives the model to quiescence on the given scheduler and
// reports event throughput and causality accounting. The scheduler
// must have cfg.Workers worker slots.
func Run(s sched.Scheduler[Event], m Model, cfg Config) (Stats, error) {
	if cfg.Workers <= 0 {
		return Stats{}, fmt.Errorf("desim: Config.Workers = %d, must be positive", cfg.Workers)
	}
	if s.Workers() < cfg.Workers {
		return Stats{}, fmt.Errorf("desim: scheduler has %d worker slots, need %d", s.Workers(), cfg.Workers)
	}
	checked := cfg.Lookahead >= 0
	var win *window
	if checked {
		win = newWindow(m.Horizon())
	}
	threshold := cfg.Lookahead + slackFactor*int64(cfg.Workers)

	var pending sched.Pending
	seedHandle := s.Worker(0)
	m.Seed(func(ev Event) {
		pending.Inc(1)
		if checked {
			win.Register(ev.T)
		}
		seedHandle.Push(ev.T, ev)
	})

	stats := make([]contend.Padded[workerStats], cfg.Workers)
	// A Pusher wraps the sink the loop hands the body, so each is built
	// at its worker's first event; afterwards the slice is only read.
	pushers := make([]Pusher, cfg.Workers)
	// Batch 1: the causality check is per event, against what the
	// scheduler would hand out next, so a worker must not commit to
	// several events before looking at the queues again.
	events, _, elapsed := sched.Run(s, &pending, cfg.Workers, 1,
		func(wid int, out *sched.Sink[Event], _ uint64, ev Event) bool {
			st := &stats[wid].Value
			push := pushers[wid]
			if push == nil {
				// push registers before emitting: by the time the event
				// is poppable anywhere, the window already counts it.
				push = func(ev Event) {
					if checked {
						win.Register(ev.T)
					}
					out.Push(ev.T, ev)
				}
				pushers[wid] = push
			}
			if checked {
				lead := win.Before(ev.T)
				st.leadSum += lead
				if lead > st.leadMax {
					st.leadMax = lead
				}
				if lead > threshold {
					st.violations++
				}
			}
			m.Handle(wid, ev, push)
			// Unregister only after Handle: while an event is
			// executing it still counts as pending for everyone
			// else, which errs on the strict side (covered by the
			// threshold slack), never the lenient one.
			if checked {
				win.Unregister(ev.T)
			}
			return false
		})

	out := Stats{Events: events, Duration: elapsed}
	var leadSum int64
	for i := range stats {
		st := &stats[i].Value
		out.Violations += st.violations
		leadSum += st.leadSum
		out.MaxLead = max(out.MaxLead, st.leadMax)
	}
	if checked && out.Events > 0 {
		out.MeanLead = float64(leadSum) / float64(out.Events)
	}
	return out, nil
}
