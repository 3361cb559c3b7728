package main

import (
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// columnStarts returns the rune offsets at which a table line's fields
// begin, treating runs of two or more spaces as the column separator
// (single spaces occur inside the params column).
func columnStarts(line string) []int {
	var starts []int
	for _, loc := range regexp.MustCompile(`(?:^|  +)\S`).FindAllStringIndex(line, -1) {
		_, size := utf8.DecodeLastRuneInString(line[loc[0]:loc[1]])
		starts = append(starts, utf8.RuneCountInString(line[:loc[1]-size]))
	}
	return starts
}

// TestRenderSchedulerListAlignment is the golden test for `smqsim
// -list`: every row must place its bound, source, and params fields in
// the same columns as the header. The fixed printf widths this rendering
// replaced drifted as soon as a scheduler name or bound outgrew them.
func TestRenderSchedulerListAlignment(t *testing.T) {
	var b strings.Builder
	renderSchedulerList(&b, 4)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("list too short:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("missing header:\n%s", out)
	}
	header := columnStarts(lines[0])
	if len(header) != 4 {
		t.Fatalf("header has %d columns, want 4: %q", len(header), lines[0])
	}
	for _, line := range lines[1:] {
		starts := columnStarts(line)
		if len(starts) != 4 {
			t.Errorf("row has %d columns, want 4: %q", len(starts), line)
			continue
		}
		for i := range starts {
			if starts[i] != header[i] {
				t.Errorf("column %d starts at rune %d, header at %d: %q", i, starts[i], header[i], line)
			}
		}
	}

	// Pinned rows: the two lock-free tier names are one configuration
	// (exact bound 0, combining), and a relaxed row carries its
	// effective knobs and the bound computed from them.
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^cbpq +0 +exact +chunk=128 combining$`),
		regexp.MustCompile(`(?m)^cbpq-elim +0 +exact +chunk=128 combining$`),
		regexp.MustCompile(`(?m)^klsm +772 +exact +k=256$`),
	} {
		if !want.MatchString(out) {
			t.Errorf("list missing row %v:\n%s", want, out)
		}
	}
}
