// Command benchcheck validates the experiment fragments that
// `smqbench -fragment` writes.
//
// Usage:
//
//	benchcheck fig1.json [more.json ...]
//
// smqbench already validates the fragment it is about to write;
// benchcheck closes the remaining gap by re-reading the bytes actually
// on disk, so CI fails if a serialized artifact stops parsing or drifts
// from the schema (internal/perfbench's Validate). Exit status is
// non-zero on the first invalid file. The per-run rules of the serve
// and desim experiments are not re-checked here: their runs are
// validated when they are measured, and a run that fails becomes an
// error cell, which `smqbench -assemble` refuses.
package main

import (
	"fmt"
	"os"

	"repro/internal/perfbench"
)

func main() {
	if len(os.Args) == 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck fragment.json ...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(path, err)
		}
		r, err := perfbench.Parse(data)
		if err == nil {
			err = perfbench.Validate(r)
		}
		if err != nil {
			fail(path, err)
		}
		fmt.Printf("%s: ok (schema %d, %d experiment fragments)\n", path, perfbench.SchemaVersion, len(r.Experiments))
	}
}

func fail(path string, err error) {
	fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
	os.Exit(1)
}
