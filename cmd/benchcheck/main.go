// Command benchcheck parses, schema-validates and merges the
// repository's JSON artifacts: serve reports (`smqserve -json`), desim
// reports (`smqsim -out`) and experiment fragments
// (`smqbench -fragment`).
//
// Usage:
//
//	benchcheck serve-smoke.json desim-smoke.json frag-0.json
//	benchcheck merge -o merged.json frag0.json frag1.json [...]
//
// The writers already validate the report they are about to write;
// benchcheck closes the remaining gap by re-reading the bytes actually
// on disk, so CI fails if a serialized artifact stops parsing or drifts
// from the schema. Each section is checked by the package that owns it:
// internal/serve enforces the zero-lost-tasks ledger, internal/desim
// the zero-violations rule under an exact covering bound, and
// internal/perfbench the fragment layout. Exit status is non-zero on
// the first invalid file.
//
// The merge subcommand combines shard fragments from parallel runs
// (different processes, machines, or CI matrix jobs) into one
// self-validating artifact via perfbench.Merge: experiment grids must
// end up complete and non-overlapping, and the output is independent of
// the input file order. Feed the merged file back to
// `smqbench -assemble` to render the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/desim"
	"repro/internal/perfbench"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "merge" {
		runMerge(os.Args[2:])
		return
	}
	if len(os.Args) == 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck artifact.json ... | benchcheck merge [-o out.json] frag0.json frag1.json ...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(path, err)
		}
		summary, err := check(data)
		if err != nil {
			fail(path, err)
		}
		fmt.Printf("%s: ok (schema %d, %s)\n", path, perfbench.SchemaVersion, summary)
	}
}

// check validates every section an artifact carries with the owning
// package's validator and summarizes what it found. A file with none of
// the known sections goes through the fragment validator, which reports
// what is wrong with its header or that it is empty.
func check(data []byte) (string, error) {
	var sections struct {
		Serve, Desim, Experiments json.RawMessage
	}
	if err := json.Unmarshal(data, &sections); err != nil {
		return "", err
	}
	var found []string
	if sections.Serve != nil {
		r, err := load(data, serve.ValidateBench)
		if err != nil {
			return "", err
		}
		found = append(found, fmt.Sprintf("%d serve runs", len(r.Serve)))
	}
	if sections.Desim != nil {
		r, err := load(data, desim.ValidateBench)
		if err != nil {
			return "", err
		}
		found = append(found, fmt.Sprintf("%d desim runs", len(r.Desim)))
	}
	if sections.Experiments != nil || len(found) == 0 {
		r, err := load(data, perfbench.Validate)
		if err != nil {
			return "", err
		}
		found = append(found, fmt.Sprintf("%d experiment fragments", len(r.Experiments)))
	}
	return strings.Join(found, ", "), nil
}

// load parses data as report type R and validates it.
func load[R any](data []byte, validate func(*R) error) (*R, error) {
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, validate(&r)
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
		r, err := load(data, perfbench.Validate)
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
