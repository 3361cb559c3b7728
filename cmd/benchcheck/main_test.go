package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBenchcheck builds the tool into a temporary directory.
func buildBenchcheck(t *testing.T) (bin, dir string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir = t.TempDir()
	bin = filepath.Join(dir, "benchcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin, dir
}

const header = `"schema_version": 8, "generated_by": "test", "go_version": "go", "gomaxprocs": 2, "seed": 1`

const fragmentJSON = `{` + header + `,
  "host": {"hostname": "h", "os": "linux", "arch": "amd64", "num_cpu": 2},
  "experiments": [{
    "experiment": "theory",
    "config": "c",
    "total_cells": 1,
    "cells": [{"index": 0, "key": "k0", "kind": "sim", "seed": 1, "status": "ok", "attempts": 1}]
  }]
}`

// TestBenchcheckEndToEnd builds the tool and runs it over valid and
// invalid fragments, pinning both exit paths and the message of the
// rule that fired.
func TestBenchcheckEndToEnd(t *testing.T) {
	bin, dir := buildBenchcheck(t)
	for _, tc := range []struct {
		name, body string
		reject     string // substring of the expected error; "" = accepted
	}{
		{"fragment", fragmentJSON, ""},
		{"fragment-badstatus", strings.Replace(fragmentJSON, `"status": "ok"`, `"status": "meh"`, 1), "unknown status"},
		{"fragment-nogomaxprocs", strings.Replace(fragmentJSON, `"gomaxprocs": 2`, `"gomaxprocs": 0`, 1), "gomaxprocs"},
		{"fragment-partial", strings.Replace(fragmentJSON, `"total_cells": 1`, `"total_cells": 2`, 1), "has 1 cells, total_cells 2"},
		{"old-schema", strings.Replace(fragmentJSON, `"schema_version": 8`, `"schema_version": 7`, 1), "schema_version = 7, want 8"},
		{"empty", `{` + header + `}`, "no experiment fragments"},
		{"not-json", `{`, "unexpected end of JSON"},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, path).CombinedOutput()
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%s: valid file rejected: %v\n%s", tc.name, err, out)
		case tc.reject != "" && err == nil:
			t.Errorf("%s: invalid file accepted:\n%s", tc.name, out)
		case tc.reject != "" && !strings.Contains(string(out), tc.reject):
			t.Errorf("%s: error %q does not mention %q", tc.name, out, tc.reject)
		}
	}

	// No arguments: usage, exit status 2.
	var exit *exec.ExitError
	out, err := exec.Command(bin).CombinedOutput()
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "usage:") {
		t.Fatalf("no arguments: err %v, output %q; want usage and exit status 2", err, out)
	}
}
