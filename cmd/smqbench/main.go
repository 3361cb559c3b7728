// Command smqbench regenerates the paper's tables and figures.
//
// Usage:
//
//	smqbench -list
//	smqbench -exp fig2 -scale 1 -threads 1,2,4 -reps 3
//	smqbench -exp emq -scale 1
//	smqbench -exp klsm -scale 1 -maxthreads 4
//	smqbench -exp geom -scale 2 -maxthreads 4 -format tsv
//	smqbench -exp all -format tsv > results.tsv
//	smqbench -exp fig2 -cpuprofile fig2.prof -memprofile fig2.mprof
//	smqbench -exp fig2 -shard 0/2 -fragment f0.json
//	smqbench -exp fig2 -assemble merged.json
//
// Every experiment is a deterministic cell grid: -listcells prints it,
// -shard / -cells run a slice of it and -fragment writes that slice as
// a schema-versioned JSON fragment (internal/perfbench), `benchcheck
// merge` recombines fragments, and -assemble renders the tables from a
// merged file without running anything. Scheduler throughput is not
// measured here: that is the repo benchmark, `bash bench/run.sh`.
//
// -cpuprofile and -memprofile write pprof profiles covering the run, so
// hot-path claims in optimisation PRs can be verified with `go tool
// pprof` instead of taken on faith; the heap profile is written at exit
// after a final GC.
//
// Every experiment prints the same row/series structure as the paper
// artifact it reproduces (speedups and work increases per cell); -list
// prints the experiment ↔ artifact mapping. The emq experiment covers
// the engineered MultiQueue follow-up baseline (Williams et al. 2021),
// the Multi-Queue with queue stickiness (mq.Engineered), with its
// stickiness × buffer-size grid; the klsm experiment sweeps
// the k-LSM's relaxation bound (Wimmer et al. 2015, k = 4..4096), the
// strongest non-Multi-Queue baseline of the paper's Figure 2 lineup,
// which both experiments' schedulers also join. The geom experiment runs the
// geometric workload family — parallel k-NN graph construction and
// exact Euclidean MST over generated point sets (uniform cube, Gaussian
// clusters) — across the full scheduler lineup, one TSV row per
// scheduler × distribution; Euclidean MST results are always verified
// against the sequential O(n^2) Prim baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/harness"
	"repro/internal/perfbench"
	"repro/internal/shard"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Int("scale", 1, "graph scale factor (1 = laptop-small)")
		threads  = flag.String("threads", "1,2,4", "comma-separated thread counts for comparison sweeps")
		maxTh    = flag.Int("maxthreads", 0, "thread count for ablation grids (default: last of -threads)")
		reps     = flag.Int("reps", 1, "repetitions per measurement (fastest kept)")
		validate = flag.Bool("validate", false, "verify every run against sequential baselines")
		format   = flag.String("format", "text", "output format: text or tsv")
		seed     = flag.Uint64("seed", 1, "base RNG seed; every cell derives its own from it")

		shardSpec   = flag.String("shard", "", "run only this slice of the cell grid, as 'i/n' (cells with index %% n == i)")
		cellList    = flag.String("cells", "", "run only these comma-separated cell indices (overrides -shard)")
		listCells   = flag.Bool("listcells", false, "print the experiment's deterministic cell enumeration and exit")
		cellTimeout = flag.Duration("celltimeout", 0, "per-cell wall-clock budget (0 = none); exceeded cells are recorded as status=timeout")
		cellRetries = flag.Int("cellretries", 0, "extra attempts for a timed-out cell before recording the timeout")
		subproc     = flag.Bool("subproc", false, "re-exec this binary once per cell (hard timeout isolation: the child is killed)")
		cellPrefix  = flag.String("cellprefix", "", "command prefix for -subproc children, e.g. 'numactl --cpunodebind=0' or 'taskset -c 0-3'")
		fragOut     = flag.String("fragment", "", "write the shard's perfbench JSON fragment to this path ('-' for stdout) instead of assembling tables")
		assemble    = flag.String("assemble", "", "skip running: assemble tables from these comma-separated fragment/merged JSON files")

		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *list || *exp == "" {
		renderExperimentList(os.Stdout)
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ths, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	cfg := harness.RunConfig{
		Scale:      *scale,
		Threads:    ths,
		MaxThreads: *maxTh,
		Reps:       *reps,
		Validate:   *validate,
		Seed:       *seed,
	}

	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.Find(strings.TrimSpace(id))
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q (try -list)", id))
			}
			exps = append(exps, e)
		}
	}

	if *assemble != "" {
		if err := assembleFragments(exps, cfg, strings.Split(*assemble, ","), *format); err != nil {
			fatal(err)
		}
		return
	}

	opts, shardInfo, mkExec, err := shardOptions(*shardSpec, *cellList, *cellTimeout, *cellRetries, *subproc, *cellPrefix, cfg)
	if err != nil {
		fatal(err)
	}
	var fragReports []*perfbench.Report
	for _, e := range exps {
		p, err := e.Plan(cfg)
		if err != nil {
			fatal(fmt.Errorf("experiment %s: %w", e.ID, err))
		}
		if *listCells {
			printCells(p)
			continue
		}
		start := time.Now()
		if mkExec != nil {
			opts.Exec = mkExec(e.ID)
		}
		fmt.Fprintf(os.Stderr, "running %s (%s): %d of %d cells...\n",
			e.ID, e.Paper, len(shard.Select(p, opts)), len(p.Cells))
		results := shard.Run(p, opts)
		summarizeStatuses(e.ID, results)
		if *fragOut != "" {
			fragReports = append(fragReports, shard.Fragment(p, results, shardInfo, "smqbench -fragment"))
		} else {
			// Assemble refuses a partial grid and any non-ok cell.
			tables, err := p.Assemble(results)
			if err != nil {
				fatal(fmt.Errorf("experiment %s: %w", e.ID, err))
			}
			if err := harness.WriteTables(os.Stdout, tables, *format); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "done %s in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if len(fragReports) > 0 {
		if err := writeFragments(*fragOut, fragReports); err != nil {
			fatal(err)
		}
	}
}

// renderExperimentList writes the -list table of registered
// experiments. A tabwriter keeps the paper-artifact column aligned —
// the fixed %-40s width it replaced overflowed on the longer follow-up
// baselines ("Williams et al. 2021 (follow-up baseline)" is 41 runes)
// and pushed their descriptions out of the column grid.
func renderExperimentList(out io.Writer) {
	fmt.Fprintln(out, "Available experiments (smqbench -exp <id>):")
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	for _, e := range harness.Registry() {
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", e.ID, e.Paper, e.Desc)
	}
	tw.Flush()
}

// shardOptions builds the runner options from the CLI flags, plus the
// shard metadata recorded in emitted fragments and (for -subproc) the
// per-experiment command factory. The -cells list (used by -subproc
// children and targeted re-runs) overrides -shard.
func shardOptions(shardSpec, cellList string, timeout time.Duration, retries int,
	subproc bool, prefix string, cfg harness.RunConfig) (shard.Options, *perfbench.ShardInfo, func(string) func(int) *exec.Cmd, error) {
	opts := shard.Options{Timeout: timeout, Retries: retries}
	var info *perfbench.ShardInfo
	if shardSpec != "" {
		i, n, err := parseShard(shardSpec)
		if err != nil {
			return opts, nil, nil, err
		}
		opts.Shard, opts.Of = i, n
		info = &perfbench.ShardInfo{Index: i, Total: n}
	}
	if cellList != "" {
		idxs, err := parseCells(cellList)
		if err != nil {
			return opts, nil, nil, err
		}
		opts.Cells = idxs
	}
	var mkExec func(string) func(int) *exec.Cmd
	if subproc {
		var err error
		if mkExec, err = subprocessExec(prefix, cfg); err != nil {
			return opts, nil, nil, err
		}
	} else if prefix != "" {
		return opts, nil, nil, fmt.Errorf("-cellprefix requires -subproc")
	}
	return opts, info, mkExec, nil
}

// parseCells parses the comma-separated cell index list (0-based, so
// unlike parseThreads zero is valid).
func parseCells(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -cells index %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cell indices in -cells %q", s)
	}
	return out, nil
}

// subprocessExec re-execs this binary for one cell: the child runs the
// cell in-process (no -subproc recursion) and prints a one-cell
// fragment on stdout, which the parent parses. The prefix wraps the
// invocation for CPU/NUMA pinning (numactl, taskset).
func subprocessExec(prefix string, cfg harness.RunConfig) (func(expID string) func(int) *exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot re-exec: %w", err)
	}
	pre := strings.Fields(prefix)
	return func(expID string) func(int) *exec.Cmd {
		return func(i int) *exec.Cmd {
			ths := make([]string, len(cfg.Threads))
			for k, t := range cfg.Threads {
				ths[k] = strconv.Itoa(t)
			}
			argv := append([]string{}, pre...)
			argv = append(argv, self,
				"-exp", expID,
				"-scale", strconv.Itoa(cfg.Scale),
				"-threads", strings.Join(ths, ","),
				"-maxthreads", strconv.Itoa(cfg.MaxThreads),
				"-reps", strconv.Itoa(cfg.Reps),
				"-seed", strconv.FormatUint(cfg.Seed, 10),
				"-cells", strconv.Itoa(i),
				"-fragment", "-")
			if cfg.Validate {
				argv = append(argv, "-validate")
			}
			return exec.Command(argv[0], argv[1:]...)
		}
	}, nil
}

// printCells lists the plan's enumeration, one line per cell.
func printCells(p *harness.Plan) {
	fmt.Printf("# %s: %d cells, config %q\n", p.Experiment, len(p.Cells), p.Config.Fingerprint())
	for _, c := range p.Cells {
		fmt.Printf("%4d  %-10s t=%-3d reps=%d seed=%#016x  %s\n",
			c.Index, c.Kind, c.Threads, c.Reps, c.Seed, c.Key)
	}
}

// summarizeStatuses reports the shard's per-status cell counts; non-ok
// cells are listed individually so CI logs name the failures.
func summarizeStatuses(expID string, rs []harness.CellResult) {
	counts := map[string]int{}
	for _, r := range rs {
		counts[r.Status]++
		if r.Status != harness.CellOK {
			fmt.Fprintf(os.Stderr, "  %s cell %d (%s): %s — %s\n", expID, r.Index, r.Key, r.Status, r.Error)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d ok, %d timeout, %d error\n",
		expID, counts[harness.CellOK], counts[harness.CellTimeout], counts[harness.CellError])
}

// writeFragments writes the shard's fragment report — one experiment
// fragment per -exp entry, all sharing this run's host fingerprint.
func writeFragments(path string, reports []*perfbench.Report) error {
	out := reports[0]
	for _, r := range reports[1:] {
		out.Experiments = append(out.Experiments, r.Experiments...)
	}
	if err := perfbench.Validate(out); err != nil {
		return fmt.Errorf("generated fragment fails schema validation: %w", err)
	}
	data, err := perfbench.Marshal(out)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// assembleFragments renders experiment tables from merged (or
// single-shard, if complete) fragment files, without running anything.
func assembleFragments(exps []harness.Experiment, cfg harness.RunConfig, files []string, format string) error {
	var reports []*perfbench.Report
	for _, f := range files {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		r, err := perfbench.Parse(data)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		reports = append(reports, r)
	}
	if len(reports) == 0 {
		return fmt.Errorf("-assemble: no fragment files")
	}
	merged := reports[0]
	if len(reports) > 1 {
		var err error
		if merged, err = perfbench.Merge(reports); err != nil {
			return err
		}
	}
	for _, e := range exps {
		p, err := e.Plan(cfg)
		if err != nil {
			return err
		}
		tables, err := shard.AssembleFragment(p, merged)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		if err := harness.WriteTables(os.Stdout, tables, format); err != nil {
			return err
		}
	}
	return nil
}

// parseShard parses "i/n".
func parseShard(s string) (int, int, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -shard %q, want i/n", s)
	}
	i, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	n, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q, want i/n with 0 <= i < n", s)
	}
	return i, n, nil
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thread counts in %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smqbench:", err)
	os.Exit(1)
}
