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
//	smqbench -exp fig2 -celltimeout 10m -fragment fig2.json
//	smqbench -exp fig2 -assemble fig2.json
//
// Every experiment is a deterministic cell grid, run whole by one
// process: -listcells prints it, -fragment writes the results of every
// cell as a schema-versioned JSON fragment (internal/perfbench), and
// -assemble validates such a file and renders the tables from it
// without running anything. -celltimeout bounds each cell's wall
// clock; after a cell exceeds it no further cell runs, since it would
// be measured beside the one still running. Scheduler throughput is not
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
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/harness"
	"repro/internal/perfbench"
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

		listCells   = flag.Bool("listcells", false, "print the experiment's deterministic cell enumeration and exit")
		cellTimeout = flag.Duration("celltimeout", 0, "per-cell wall-clock budget (0 = none); an exceeded cell is recorded as status=timeout and no further cell runs")
		fragOut     = flag.String("fragment", "", "write the run's perfbench JSON fragment to this path ('-' for stdout) instead of assembling tables")
		assemble    = flag.String("assemble", "", "skip running: validate this fragment JSON file and assemble the tables from it")

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
		if err := assembleFragment(exps, cfg, *assemble, *format); err != nil {
			fatal(err)
		}
		return
	}

	var frag *perfbench.Report
	for ei, e := range exps {
		p, err := e.Plan(cfg)
		if err != nil {
			fatal(fmt.Errorf("experiment %s: %w", e.ID, err))
		}
		if *listCells {
			printCells(p)
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (%s): %d cells...\n", e.ID, e.Paper, len(p.Cells))
		results := p.RunAll(*cellTimeout)
		timedOut := summarizeStatuses(e.ID, results)
		if *fragOut != "" {
			r := p.Fragment(results, "smqbench -fragment")
			if frag == nil {
				frag = r
			} else {
				frag.Experiments = append(frag.Experiments, r.Experiments...)
			}
		} else {
			// Assemble refuses any non-ok cell.
			tables, err := p.Assemble(results)
			if err != nil {
				fatal(fmt.Errorf("experiment %s: %w", e.ID, err))
			}
			if err := harness.WriteTables(os.Stdout, tables, *format); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "done %s in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		if timedOut && ei+1 < len(exps) {
			fmt.Fprintf(os.Stderr, "%s: a timed-out cell may still be running; not running %d more experiments\n",
				e.ID, len(exps)-ei-1)
			break
		}
	}
	if frag != nil {
		if err := writeFragment(*fragOut, frag); err != nil {
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

// printCells lists the plan's enumeration, one line per cell.
func printCells(p *harness.Plan) {
	fmt.Printf("# %s: %d cells, config %q\n", p.Experiment, len(p.Cells), p.Config.Fingerprint())
	for _, c := range p.Cells {
		fmt.Printf("%4d  %-10s t=%-3d reps=%d seed=%#016x  %s\n",
			c.Index, c.Kind, c.Threads, c.Reps, c.Seed, c.Key)
	}
}

// summarizeStatuses reports the run's per-status cell counts; non-ok
// cells are listed individually so CI logs name the failures. It
// reports whether a cell timed out.
func summarizeStatuses(expID string, rs []harness.CellResult) bool {
	counts := map[string]int{}
	for _, r := range rs {
		counts[r.Status]++
		if r.Status != harness.CellOK {
			fmt.Fprintf(os.Stderr, "  %s cell %d (%s): %s — %s\n", expID, r.Index, r.Key, r.Status, r.Error)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d ok, %d timeout, %d error\n",
		expID, counts[harness.CellOK], counts[harness.CellTimeout], counts[harness.CellError])
	return counts[harness.CellTimeout] > 0
}

// writeFragment validates the run's fragment report — one experiment
// fragment per -exp entry — and writes it.
func writeFragment(path string, rep *perfbench.Report) error {
	if err := perfbench.Validate(rep); err != nil {
		return fmt.Errorf("generated fragment fails schema validation: %w", err)
	}
	data, err := perfbench.Marshal(rep)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// assembleFragment renders experiment tables from a fragment file
// without running anything. AssembleFragment validates the report
// against the artifact schema first, so an invalid file renders
// nothing.
func assembleFragment(exps []harness.Experiment, cfg harness.RunConfig, file, format string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	rep, err := perfbench.Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	for _, e := range exps {
		p, err := e.Plan(cfg)
		if err != nil {
			return err
		}
		tables, err := p.AssembleFragment(rep)
		if err != nil {
			return fmt.Errorf("%s: experiment %s: %w", file, e.ID, err)
		}
		if err := harness.WriteTables(os.Stdout, tables, format); err != nil {
			return err
		}
	}
	return nil
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
