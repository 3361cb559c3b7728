package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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

func fragmentJSON(shardIdx, cellIdx int) string {
	return `{` + header + `,
  "host": {"hostname": "h", "os": "linux", "arch": "amd64", "num_cpu": 2},
  "experiments": [{
    "experiment": "theory",
    "config": "c",
    "total_cells": 2,
    "shard": {"index": ` + strconv.Itoa(shardIdx) + `, "total": 2},
    "cells": [{"index": ` + strconv.Itoa(cellIdx) + `, "key": "k` + strconv.Itoa(cellIdx) + `", "kind": "sim", "seed": 1, "status": "ok", "attempts": 1}]
  }]
}`
}

func serveJSON(ingested int) string {
	return `{` + header + `,
  "serve": [{"scheduler": "smq", "offered_rate_per_sec": 1000, "workers": 3, "min_workers": 1,
    "tenants": 1, "tenant_skew": 0, "ingested": ` + strconv.Itoa(ingested) + `, "completed": 90, "shed": 10,
    "duration_ns": 1000, "throughput_tasks_per_sec": 9e7, "stalls": 0, "stall_ns": 0,
    "parks": 0, "unparks": 0, "mean_active_workers": 1, "idle_cpu_frac": -1,
    "per_tenant": [{"tenant": 0, "completed": 90, "shed": 10,
      "latency_p50_ns": 100, "latency_p99_ns": 200, "latency_p999_ns": 300}]}]
}`
}

func desimJSON(violations int) string {
	return `{` + header + `,
  "desim": [{"scheduler": "klsm", "model": "dag", "workers": 2, "seed": 1,
    "events": 100, "duration_ns": 100, "events_per_sec": 1e9,
    "rank_bound": 4, "bound_exact": true, "lookahead": 4, "bound_source": "exact",
    "causality_violations": ` + strconv.Itoa(violations) + `, "max_lead": 3, "mean_lead": 1, "checksum": 1}]
}`
}

// TestBenchcheckEndToEnd builds the tool and runs it over a valid and
// an invalid artifact of each kind, pinning both exit paths and the
// message of the rule that fired.
func TestBenchcheckEndToEnd(t *testing.T) {
	bin, dir := buildBenchcheck(t)
	for _, tc := range []struct {
		name, body string
		reject     string // substring of the expected error; "" = accepted
	}{
		{"fragment", fragmentJSON(0, 0), ""},
		{"fragment-badstatus", strings.Replace(fragmentJSON(0, 0), `"status": "ok"`, `"status": "meh"`, 1), "unknown status"},
		{"fragment-nogomaxprocs", strings.Replace(fragmentJSON(0, 0), `"gomaxprocs": 2`, `"gomaxprocs": 0`, 1), "gomaxprocs"},
		{"serve", serveJSON(100), ""},
		{"serve-lost", serveJSON(101), "LOST TASKS: ingested 101 != completed 90 + shed 10"},
		{"desim", desimJSON(0), ""},
		{"desim-violation", desimJSON(1), "1 causality violations with lookahead 4 >= exact bound 4"},
		{"old-schema", strings.Replace(serveJSON(100), `"schema_version": 8`, `"schema_version": 7`, 1), "schema_version = 7, want 8"},
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

// TestBenchcheckMerge drives the merge subcommand over two shard
// fragments and re-validates the merged artifact with the same tool.
func TestBenchcheckMerge(t *testing.T) {
	bin, dir := buildBenchcheck(t)
	f0 := filepath.Join(dir, "frag0.json")
	f1 := filepath.Join(dir, "frag1.json")
	merged := filepath.Join(dir, "merged.json")
	if err := os.WriteFile(f0, []byte(fragmentJSON(0, 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f1, []byte(fragmentJSON(1, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "merge", "-o", merged, f0, f1).CombinedOutput(); err != nil {
		t.Fatalf("merge failed: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, merged).CombinedOutput(); err != nil {
		t.Fatalf("merged artifact invalid: %v\n%s", err, out)
	}

	// An incomplete grid must not merge: one shard alone covers 1 of 2.
	if err := exec.Command(bin, "merge", "-o", filepath.Join(dir, "x.json"), f0).Run(); err == nil {
		t.Fatal("incomplete grid merged")
	}
}
