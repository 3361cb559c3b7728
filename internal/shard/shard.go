// Package shard is the runner layer of the experiment pipeline: it
// executes a subset of an experiment plan's cells — in-process or by
// re-exec'ing the benchmark binary per cell — under per-cell wall-clock
// timeouts with bounded retry, and packages the outcomes as a perfbench
// fragment. Fragments from different shards (processes, machines, CI
// matrix jobs) recombine with perfbench.Merge; the merged artifact
// feeds back into the plan's assembly to regenerate the paper tables,
// byte-identical (modulo timing fields) to an in-process run.
//
// The shape follows the per-cell process model of Doppel's benchmark
// driver (one process per grid cell, explicit core lists) and the
// mandatory-timeout harness discipline of the inference-sim plan: a
// hung cell is recorded as status=timeout and the rest of the grid
// proceeds.
package shard

import (
	"bytes"
	"fmt"
	"os/exec"
	"time"

	"repro/internal/harness"
	"repro/internal/perfbench"
)

// Options configures a shard run.
type Options struct {
	// Shard / Of select the strided slice: cells with Index % Of ==
	// Shard. Of <= 1 selects everything (one shard).
	Shard, Of int
	// Cells, when non-nil, overrides the stride with an explicit cell
	// index list (still filtered to valid indices).
	Cells []int
	// Timeout is the per-cell wall-clock budget; 0 means no timeout.
	Timeout time.Duration
	// Retries is how many extra attempts a timed-out cell gets before
	// being recorded as status=timeout. Errors are not retried — they
	// are deterministic (validation failures), not flakes.
	Retries int
	// Exec, when set, runs each cell in a subprocess instead of
	// in-process: it must return a ready-to-run command (typically the
	// current binary re-exec'd with -cells <index> -fragment -, wrapped
	// in numactl/taskset if desired) whose stdout is a one-cell
	// perfbench fragment report. On timeout the process is killed.
	Exec func(index int) *exec.Cmd
}

// Select returns the plan's cell indices this shard owns, in
// enumeration order.
func Select(p *harness.Plan, opts Options) []int {
	if opts.Cells != nil {
		var out []int
		for _, i := range opts.Cells {
			if i >= 0 && i < len(p.Cells) {
				out = append(out, i)
			}
		}
		return out
	}
	if opts.Of <= 1 {
		out := make([]int, len(p.Cells))
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	for i := range p.Cells {
		if i%opts.Of == opts.Shard%opts.Of {
			out = append(out, i)
		}
	}
	return out
}

// Run executes the shard's cells and returns their results in
// enumeration order. Every selected cell yields exactly one result —
// ok, timeout or error — so a hung or failing cell cannot take the
// rest of the grid down with it.
func Run(p *harness.Plan, opts Options) []harness.CellResult {
	idxs := Select(p, opts)
	out := make([]harness.CellResult, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, runCell(p, i, opts))
	}
	return out
}

// runCell runs one cell under the timeout/retry policy.
func runCell(p *harness.Plan, i int, opts Options) harness.CellResult {
	attempts := 0
	for {
		attempts++
		var res harness.CellResult
		if opts.Exec != nil {
			res = runSubprocess(p, i, opts)
		} else {
			res = runInProcess(p, i, opts.Timeout)
		}
		res.Attempts = attempts
		if res.Status == harness.CellTimeout && attempts <= opts.Retries {
			continue
		}
		return res
	}
}

// runInProcess executes the cell on a fresh goroutine and abandons it
// if the timeout expires. The abandoned goroutine keeps running until
// its workload finishes — Go cannot kill it — so its result is
// discarded on arrival; callers needing hard isolation use Exec
// subprocess mode, where the process is killed outright.
func runInProcess(p *harness.Plan, i int, timeout time.Duration) harness.CellResult {
	if timeout <= 0 {
		return p.RunCell(i)
	}
	done := make(chan harness.CellResult, 1)
	start := time.Now()
	go func() { done <- p.RunCell(i) }()
	select {
	case res := <-done:
		return res
	case <-time.After(timeout):
		return harness.CellResult{
			Cell:      p.Cells[i],
			Status:    harness.CellTimeout,
			Error:     fmt.Sprintf("cell exceeded %v wall-clock budget", timeout),
			ElapsedNs: time.Since(start).Nanoseconds(),
		}
	}
}

// runSubprocess executes the cell in its own process and parses the
// one-cell fragment the child prints on stdout. The child is killed on
// timeout, so even a livelocked scheduler cannot outlive its budget.
func runSubprocess(p *harness.Plan, i int, opts Options) harness.CellResult {
	c := p.Cells[i]
	fail := func(status, msg string, elapsed time.Duration) harness.CellResult {
		return harness.CellResult{Cell: c, Status: status, Error: msg,
			ElapsedNs: elapsed.Nanoseconds()}
	}

	cmd := opts.Exec(i)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fail(harness.CellError, fmt.Sprintf("start subprocess: %v", err), time.Since(start))
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	var waitErr error
	if opts.Timeout > 0 {
		select {
		case waitErr = <-done:
		case <-time.After(opts.Timeout):
			_ = cmd.Process.Kill()
			<-done // reap
			return fail(harness.CellTimeout,
				fmt.Sprintf("subprocess killed after %v wall-clock budget", opts.Timeout), time.Since(start))
		}
	} else {
		waitErr = <-done
	}
	elapsed := time.Since(start)
	if waitErr != nil {
		return fail(harness.CellError,
			fmt.Sprintf("subprocess: %v (stderr: %s)", waitErr, truncate(stderr.String(), 300)), elapsed)
	}

	rep, err := perfbench.Parse(stdout.Bytes())
	if err != nil {
		return fail(harness.CellError, fmt.Sprintf("parse subprocess fragment: %v", err), elapsed)
	}
	for _, frag := range rep.Experiments {
		if frag.Experiment != p.Experiment || frag.Config != p.Config.Fingerprint() {
			continue
		}
		for _, rec := range frag.Cells {
			if rec.Index == i {
				rec.Cell = c // trust our own enumeration over the child's echo
				rec.ElapsedNs = elapsed.Nanoseconds()
				return rec
			}
		}
	}
	return fail(harness.CellError,
		fmt.Sprintf("subprocess fragment does not contain cell %d of %s", i, p.Experiment), elapsed)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Fragment packages a shard's results as a self-contained perfbench
// report carrying one experiment fragment. shardInfo may be nil for
// full single-process runs.
func Fragment(p *harness.Plan, results []harness.CellResult, shardInfo *perfbench.ShardInfo, generatedBy string) *perfbench.Report {
	h := perfbench.NewHeader(generatedBy)
	return &perfbench.Report{
		Header: h,
		Experiments: []perfbench.ExperimentFragment{{
			Experiment: p.Experiment,
			Config:     p.Config.Fingerprint(),
			TotalCells: len(p.Cells),
			Shard:      shardInfo,
			Host:       h.Host.Hostname,
			Cells:      results,
		}},
	}
}

// AssembleFragment renders the experiment's tables from a (merged)
// report fragment, after checking the fragment actually belongs to the
// plan: same experiment, same config fingerprint, same cell count, and
// every record's key matching the plan's enumeration. This is the
// cross-process integrity check — two binaries that disagree on the
// enumeration fail here instead of producing silently misattributed
// tables.
func AssembleFragment(p *harness.Plan, rep *perfbench.Report) ([]harness.Table, error) {
	want := p.Config.Fingerprint()
	for i := range rep.Experiments {
		frag := &rep.Experiments[i]
		if frag.Experiment != p.Experiment || frag.Config != want {
			continue
		}
		if frag.TotalCells != len(p.Cells) {
			return nil, fmt.Errorf("shard: %s: fragment has %d total cells, plan enumerates %d",
				p.Experiment, frag.TotalCells, len(p.Cells))
		}
		if !frag.Complete() {
			return nil, fmt.Errorf("shard: %s: fragment covers %d of %d cells (merge the remaining shards first)",
				p.Experiment, len(frag.Cells), frag.TotalCells)
		}
		rs := make([]harness.CellResult, len(p.Cells))
		seen := make([]bool, len(p.Cells))
		for _, rec := range frag.Cells {
			if rec.Index < 0 || rec.Index >= len(p.Cells) || seen[rec.Index] {
				return nil, fmt.Errorf("shard: %s: fragment cell index %d invalid or duplicated", p.Experiment, rec.Index)
			}
			if rec.Key != p.Cells[rec.Index].Key {
				return nil, fmt.Errorf("shard: %s: cell %d key mismatch: fragment %q, plan %q (enumeration drift between binaries?)",
					p.Experiment, rec.Index, rec.Key, p.Cells[rec.Index].Key)
			}
			seen[rec.Index] = true
			rs[rec.Index] = rec
		}
		return p.Assemble(rs)
	}
	return nil, fmt.Errorf("shard: report carries no fragment for %s with config %q", p.Experiment, want)
}
