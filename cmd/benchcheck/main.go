// Command benchcheck validates and merges the experiment fragments
// that `smqbench -fragment` writes.
//
// Usage:
//
//	benchcheck frag-0.json merged.json
//	benchcheck merge -o merged.json frag0.json frag1.json [...]
//
// smqbench already validates the fragment it is about to write;
// benchcheck closes the remaining gap by re-reading the bytes actually
// on disk, so CI fails if a serialized artifact stops parsing or drifts
// from the schema (internal/perfbench's Validate). Exit status is
// non-zero on the first invalid file. The per-run rules of the serve
// and desim experiments are not re-checked here: their runs are
// validated when they are measured, and a run that fails becomes an
// error cell, which `smqbench -assemble` refuses.
//
// The merge subcommand combines shard fragments from parallel runs
// (different processes, machines, or CI matrix jobs) into one
// self-validating artifact via perfbench.Merge: experiment grids must
// end up complete and non-overlapping, and the output is independent of
// the input file order. Feed the merged file back to
// `smqbench -assemble` to render the tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/perfbench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "merge" {
		runMerge(os.Args[2:])
		return
	}
	if len(os.Args) == 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck fragment.json ... | benchcheck merge [-o out.json] frag0.json frag1.json ...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(path, err)
		}
		r, err := load(data)
		if err != nil {
			fail(path, err)
		}
		fmt.Printf("%s: ok (schema %d, %d experiment fragments)\n", path, perfbench.SchemaVersion, len(r.Experiments))
	}
}

// load parses data as a fragment report and validates it.
func load(data []byte) (*perfbench.Report, error) {
	r, err := perfbench.Parse(data)
	if err != nil {
		return nil, err
	}
	return r, perfbench.Validate(r)
}

// runMerge implements `benchcheck merge -o out.json frag.json ...`.
func runMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "-", "output path for the merged report ('-' for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcheck merge [-o out.json] frag0.json frag1.json [...]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	reports := make([]*perfbench.Report, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(path, err)
		}
		r, err := load(data)
		if err != nil {
			fail(path, err)
		}
		reports = append(reports, r)
	}
	merged, err := perfbench.Merge(reports)
	if err != nil {
		fail("merge", err)
	}
	data, err := perfbench.Marshal(merged)
	if err != nil {
		fail("merge", err)
	}
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			fail("stdout", err)
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(*out, err)
	}
	fmt.Fprintf(os.Stderr, "merged %d reports: %d experiment fragments\n", len(reports), len(merged.Experiments))
}

func fail(path string, err error) {
	fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
	os.Exit(1)
}
