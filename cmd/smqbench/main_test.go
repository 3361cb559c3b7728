package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/harness"
	"repro/internal/perfbench"
)

// TestAssembleRefusesInvalidFragment runs the built binary's -assemble
// on variants of a real theory fragment, each with one defect that the
// artifact schema rejects: an old schema version, an unknown cell
// status, a zero gomaxprocs, fewer records than total_cells, no
// experiment fragments, and bytes that are not JSON. Each must exit
// non-zero, render nothing and name the rule that fired. The unaltered
// fragment is the control and renders.
func TestAssembleRefusesInvalidFragment(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "smqbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	e, _ := harness.Find("theory")
	p, err := e.Plan(harness.RunConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Fragment(p.RunAll(0), "test")
	good, err := perfbench.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := perfbench.Marshal(&perfbench.Report{Header: rep.Header})
	if err != nil {
		t.Fatal(err)
	}
	replace := func(from, to string) []byte {
		if !bytes.Contains(good, []byte(from)) {
			t.Fatalf("fragment does not contain %q", from)
		}
		return bytes.Replace(good, []byte(from), []byte(to), 1)
	}
	n := len(p.Cells)
	total := fmt.Sprintf(`"total_cells": %d`, n)
	gomaxprocs := fmt.Sprintf(`"gomaxprocs": %d`, rep.GOMAXPROCS)
	for _, tc := range []struct {
		name   string
		body   []byte
		reject string // substring of the expected error; "" = renders
	}{
		{"good", good, ""},
		{"schema-7", replace(`"schema_version": 8`, `"schema_version": 7`), "schema_version = 7, want 8"},
		{"bad-status", replace(`"status": "ok"`, `"status": "meh"`), "unknown status"},
		{"no-gomaxprocs", replace(gomaxprocs, `"gomaxprocs": 0`), "gomaxprocs = 0"},
		{"partial", replace(total, fmt.Sprintf(`"total_cells": %d`, n+1)), fmt.Sprintf("has %d cells, total_cells %d", n, n+1)},
		{"no-fragments", empty, "no experiment fragments"},
		{"not-json", []byte(`{`), "unexpected end of JSON"},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, tc.body, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-exp", "theory", "-seed", "21", "-format", "tsv", "-assemble", path)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		switch {
		case tc.reject == "" && (err != nil || stdout.Len() == 0):
			t.Errorf("%s: not rendered: %v\n%s", tc.name, err, stderr.String())
		case tc.reject != "" && err == nil:
			t.Errorf("%s: exit status 0, rendered:\n%s", tc.name, stdout.String())
		case tc.reject != "" && (stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.reject)):
			t.Errorf("%s: stderr %q does not mention %q, or tables rendered", tc.name, stderr.String(), tc.reject)
		}
	}
}

func TestParseThreads(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"1,2,4", []int{1, 2, 4}, false},
		{"8", []int{8}, false},
		{" 1 , 2 ", []int{1, 2}, false},
		{"", nil, true},
		{"0", nil, true},
		{"-3", nil, true},
		{"two", nil, true},
		{",,", nil, true},
	}
	for _, tc := range cases {
		got, err := parseThreads(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("%q: expected error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// expColumnStarts returns the rune offsets at which a -list row's
// fields begin; runs of two or more spaces separate the columns (the
// paper and description fields contain single spaces).
func expColumnStarts(line string) []int {
	var starts []int
	for _, loc := range regexp.MustCompile(`(?:^|  +)\S`).FindAllStringIndex(line, -1) {
		_, size := utf8.DecodeLastRuneInString(line[loc[0]:loc[1]])
		starts = append(starts, utf8.RuneCountInString(line[:loc[1]-size]))
	}
	return starts
}

// TestRenderExperimentListAlignment is the golden test for `smqbench
// -list`: every experiment row must place its paper-artifact and
// description fields in the same columns. The fixed %-40s width this
// rendering replaced overflowed on the longer follow-up baseline
// titles and misaligned the descriptions after them.
func TestRenderExperimentListAlignment(t *testing.T) {
	var b strings.Builder
	renderExperimentList(&b)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "Available experiments") {
		t.Fatalf("unexpected list shape:\n%s", out)
	}
	rows := lines[1:]
	first := expColumnStarts(rows[0])
	if len(first) != 3 {
		t.Fatalf("row has %d columns, want 3: %q", len(first), rows[0])
	}
	ids := make(map[string]bool, len(rows))
	for _, row := range rows {
		starts := expColumnStarts(row)
		if len(starts) != 3 {
			t.Errorf("row has %d columns, want 3: %q", len(starts), row)
			continue
		}
		for i := range starts {
			if starts[i] != first[i] {
				t.Errorf("column %d starts at rune %d, first row at %d: %q", i, starts[i], first[i], row)
			}
		}
		ids[strings.Fields(row)[0]] = true
	}
	// The historically overflowing rows must be present and, per the
	// loop above, aligned: emq's paper title is 41 runes and rankprobe's
	// id is wider than the old 8-rune id column.
	for _, id := range []string{"emq", "desim", "rankprobe"} {
		if !ids[id] {
			t.Errorf("list missing experiment %q:\n%s", id, out)
		}
	}
	if len(ids) != len(harness.Registry()) {
		t.Errorf("list shows %d experiments, registry has %d", len(ids), len(harness.Registry()))
	}
}
