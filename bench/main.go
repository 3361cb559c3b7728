// Command bench is the repository's benchmark: five workloads against a
// fixed four-scheduler lineup at W = min(GOMAXPROCS, 4) workers, every
// output verified, and a traced pass that attributes worker time to
// layers from outside the library. See README.md.
//
// One workload's last line on standard output is a JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of every input; scheduler seeds derive from it and the repetition")
	seconds := flag.Float64("seconds", 15, "wall time one workload measures for")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	only := flag.String("sched", "", "comma-separated subset of the lineup (default: all of it)")
	verbose := flag.Bool("v", false, "print every repetition")
	list := flag.Bool("list", false, "print the registered workload and metric names and exit")
	aa := flag.Bool("aa", false, "run the end-to-end pass twice, in two processes, and compare the results with the bounds")
	flag.Parse()

	if *list {
		printList()
		return
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, scheds: lineup, verbose: *verbose, log: os.Stdout}
	if *only != "" {
		cfg.scheds = strings.Split(*only, ",")
		for _, s := range cfg.scheds {
			if !slices.Contains(lineup, s) {
				fatal(fmt.Errorf("-sched %s: the lineup is %v", s, lineup))
			}
		}
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var err error
	if cfg.workers, err = preflight(cfg.log); err != nil {
		fatal(err)
	}
	if *aa {
		cfg.trace = false
		if !runAA(names, cfg) {
			os.Exit(1)
		}
		return
	}
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printList() {
	for _, w := range workloads {
		fmt.Printf("workload\t%s\t%s\n", w.name, w.why)
	}
	for _, m := range endToEnd() {
		fmt.Printf("end_to_end\t%s\t%s\t%s\tbound %.2f\n", m.name, m.unit, m.better(), m.bound)
	}
	for _, m := range perLayer() {
		fmt.Printf("per_layer\t%s\t%s\t%s\n", m.name, m.unit, m.better())
	}
}

// runAA runs the end-to-end pass of each workload twice with the same
// seed, each in a process of its own as the driver does, and compares
// the two values of every metric with its bound: the benchmark's own
// noise floor, taken the way a regression is judged. (Two runs in one
// process are not the same code twice: the second starts on the heap the
// first left, and its set-ups and serve-drain came out 10 to 25 % apart.)
func runAA(names []string, cfg config) bool {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ok := true
	var lines []string
	for _, name := range names {
		var runs [2]result
		for i := range runs {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-sched", strings.Join(cfg.scheds, ","))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				fatal(fmt.Errorf("%s, run %d: %w", name, i, err))
			}
			last := out[bytes.LastIndexByte(bytes.TrimSpace(out), '\n')+1:]
			if err := json.Unmarshal(last, &runs[i]); err != nil {
				fatal(fmt.Errorf("%s, run %d: last line: %w", name, i, err))
			}
			ok = ok && runs[i].Correct
		}
		for _, m := range endToEnd() {
			if s, isRate := strings.CutPrefix(m.name, "tasks_per_s."); isRate && !slices.Contains(cfg.scheds, s) {
				continue // left out by -sched
			}
			a, b := runs[0].Metrics[m.name].Value, runs[1].Metrics[m.name].Value
			diff := math.Abs(a-b) / a
			verdict := "ok"
			if !(a > 0 && b > 0) {
				verdict, ok = "MISSING OR ZERO", false
			} else if diff > m.bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			lines = append(lines, fmt.Sprintf("%-14s %-18s A %-12.6g B %-12.6g diff %6.2f%%  bound %3.0f%%  %s",
				name, m.name, a, b, 100*diff, 100*m.bound, verdict))
		}
	}
	fmt.Println("\n== A/A: two runs of the same code ==")
	fmt.Println(strings.Join(lines, "\n"))
	return ok
}
