package main

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/harness"
)

func TestParseShard(t *testing.T) {
	if i, n, err := parseShard("1/3"); err != nil || i != 1 || n != 3 {
		t.Fatalf("1/3 = %d/%d, %v", i, n, err)
	}
	for _, bad := range []string{"", "2", "3/3", "-1/2", "a/b", "1/0"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestParseCells(t *testing.T) {
	got, err := parseCells("0, 5,2")
	if err != nil || !reflect.DeepEqual(got, []int{0, 5, 2}) {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "-1", "x", ",,"} {
		if _, err := parseCells(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestSubprocessArgv pins the child invocation: the re-exec'd command
// must target exactly one cell, print a fragment on stdout, and never
// inherit -subproc or -shard (which would recurse or mis-slice).
func TestSubprocessArgv(t *testing.T) {
	cfg := harness.RunConfig{Scale: 2, Threads: []int{1, 2}, MaxThreads: 2,
		Reps: 3, Validate: true, Seed: 9}
	mk, err := subprocessExec("nice -n 10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmd := mk("fig2")(7)
	argv := strings.Join(cmd.Args, " ")
	if !strings.HasPrefix(argv, "nice -n 10 ") {
		t.Fatalf("prefix not applied: %q", argv)
	}
	for _, want := range []string{"-exp fig2", "-cells 7", "-fragment -", "-seed 9",
		"-scale 2", "-threads 1,2", "-maxthreads 2", "-reps 3", "-validate"} {
		if !strings.Contains(argv, want) {
			t.Errorf("argv missing %q: %q", want, argv)
		}
	}
	for _, bad := range []string{"-subproc", "-shard"} {
		if strings.Contains(argv, bad) {
			t.Errorf("argv must not carry %q: %q", bad, argv)
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
