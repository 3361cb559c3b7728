// Command smqsim runs discrete-event simulations through the scheduler
// zoo (internal/desim) with the full parameter set, and writes the
// schema-versioned desim report (desim.BenchReport) as JSON.
//
// Usage:
//
//	smqsim -out - -workers 4
//	smqsim -out desim.json -events 2000000 -schedulers coarse,smq,klsm
//	smqsim -out - -models dag -layers 512 -width 512
//	smqsim -list
//
// Every scheduler simulates every requested model with a fresh model
// instance; the causality window is the scheduler's own rank-error
// bound at the chosen worker count (schedulers without a usable bound
// run unchecked). The emitted report is validated before writing — the
// zero-violations rule for exact bounds and the cross-scheduler
// checksum identity are hard failures, not footnotes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/desim"
	"repro/internal/perfbench"
	"repro/internal/zoo"
)

func main() {
	var (
		out        = flag.String("out", "-", "report path ('-' for stdout)")
		list       = flag.Bool("list", false, "list zoo scheduler names with their rank bounds and exit")
		workers    = flag.Int("workers", 0, "simulation workers (default GOMAXPROCS)")
		schedulers = flag.String("schedulers", "", "comma-separated zoo subset (default: full lineup)")
		models     = flag.String("models", "", "comma-separated model subset (cluster,dag; default both)")
		events     = flag.Int("events", 0, "approximate events per cluster run (default 2000000)")
		stations   = flag.Int("stations", 0, "cluster service stations (default 64)")
		tenants    = flag.Int("tenants", 0, "cluster tenants (default 8)")
		layers     = flag.Int("layers", 0, "dag layers (default 256)")
		width      = flag.Int("width", 0, "dag layer width (default 256)")
		seed       = flag.Uint64("seed", 1, "simulation RNG seed")
	)
	flag.Parse()

	if *list {
		w := *workers
		if w <= 0 {
			w = 4
		}
		renderSchedulerList(os.Stdout, w)
		return
	}

	cfg := desim.BenchConfig{
		Workers:  *workers,
		Events:   *events,
		Stations: *stations,
		Tenants:  *tenants,
		Layers:   *layers,
		Width:    *width,
		Seed:     *seed,
	}
	for _, s := range strings.Split(*schedulers, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.Schedulers = append(cfg.Schedulers, s)
		}
	}
	for _, m := range strings.Split(*models, ",") {
		if m = strings.TrimSpace(m); m != "" {
			cfg.Models = append(cfg.Models, m)
		}
	}

	start := time.Now()
	report, err := desim.RunBench(cfg)
	if err != nil {
		fatal(err)
	}
	data, err := perfbench.Marshal(report)
	if err != nil {
		fatal(err)
	}
	if *out == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "smqsim: %d runs in %v\n", len(report.Desim), time.Since(start).Round(time.Millisecond))
}

// renderSchedulerList writes the -list table: every zoo scheduler with
// its rank bound at the given worker count, its bound source, and its
// parameter summary. A tabwriter keeps the columns aligned regardless
// of name and parameter-string length, which fixed printf widths did
// not.
func renderSchedulerList(out io.Writer, workers int) {
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tbound\tsource\tparams")
	for _, s := range zoo.Lineup[struct{}]() {
		bound, exact := s.RankBound(workers)
		bs := "—"
		if bound >= 0 {
			bs = fmt.Sprint(bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", s.Name, bs, desim.BoundSource(bound, exact), s.Params)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smqsim:", err)
	os.Exit(1)
}
