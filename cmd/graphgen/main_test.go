package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunWritesReadableGraph(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	gr := filepath.Join(dir, "g.gr")
	if err := run([]string{"-type", "road", "-rows", "4", "-cols", "5", "-stat=false", "-o", bin}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bin, "-outformat", "dimacs", "-stat=false", "-o", gr}); err != nil {
		t.Fatal(err)
	}
	g, err := readGraph(gr)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 20 {
		t.Fatalf("N = %d, want 20", g.N)
	}
}

func TestRunFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.bin")
	if err := run([]string{"-type", "road", "-rows", "4", "-cols", "4", "-stat=false", "-outformat", "xml", "-o", out}); err == nil {
		t.Fatal("unknown -outformat accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("output left behind after a failed run: stat err = %v", err)
	}
	if err := run([]string{"-stat=false", "-o", filepath.Join(dir, "x.bin"), "-in", filepath.Join(dir, "missing.bin")}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run([]string{"-type", "ring", "-o", out}); err == nil {
		t.Fatal("unknown -type accepted")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed runs left %d files", len(entries))
	}
}
