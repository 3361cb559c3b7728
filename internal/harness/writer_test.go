package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestTSVRoundTrip pins the TSV format: write → parse → compare must be
// lossless, both for a synthetic table set and for a real experiment's
// rendered output.
func TestTSVRoundTrip(t *testing.T) {
	tables := []Table{
		{
			Title:  "Synthetic panel (a)",
			Header: []string{"Scheduler", "Threads", "Time", "Speedup"},
			Rows: [][]string{
				{"SMQ SkipList", "4", "1.23ms", "3.8x"},
				{"MQ Classic", "4", "2.00ms", "2.4x"},
			},
		},
		{
			Title:  "Empty data panel",
			Header: []string{"K", "Value"},
		},
	}
	var buf bytes.Buffer
	if err := WriteTables(&buf, tables, "tsv"); err != nil {
		t.Fatal(err)
	}
	got, err := parseTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tables) {
		t.Fatalf("round trip changed tables:\n got %+v\nwant %+v", got, tables)
	}
}

func TestTSVRoundTripRealExperiment(t *testing.T) {
	e, ok := Find("theory")
	if !ok {
		t.Fatal("theory experiment missing")
	}
	tables, err := e.Run(RunConfig{Scale: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTables(&buf, tables, "tsv"); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()
	parsed, err := parseTSV(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, tables) {
		t.Fatal("parsed tables differ from the experiment's output")
	}
	// Second write of the parsed tables reproduces the bytes exactly.
	var buf2 bytes.Buffer
	if err := WriteTables(&buf2, parsed, "tsv"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("re-written TSV differs from the original bytes")
	}
}

func TestParseTSVRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"data outside a table":      "stray\n",
		"missing blank terminator":  "# T\nH1\tH2\n1\t2\n",
		"ragged row":                "# T\nH1\tH2\n1\t2\t3\n\n",
		"table without header":      "# T\n\n",
		"new table inside previous": "# T\nH\n# U\n",
	}
	for name, in := range cases {
		if _, err := parseTSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// parseTSV is the inverse of WriteTSV over a stream of tables: it reads
// `# Title`, a tab-joined header line, data rows, and the blank table
// terminator, repeatedly until EOF.
func parseTSV(r io.Reader) ([]Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var tables []Table
	var cur *Table
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "# "):
			if cur != nil {
				return nil, fmt.Errorf("harness: tsv line %d: new table %q before blank terminator", line, text)
			}
			tables = append(tables, Table{Title: strings.TrimPrefix(text, "# ")})
			cur = &tables[len(tables)-1]
		case text == "":
			if cur == nil {
				continue // tolerate extra blank lines between tables
			}
			if cur.Header == nil {
				return nil, fmt.Errorf("harness: tsv line %d: table %q has no header", line, cur.Title)
			}
			cur = nil
		case cur == nil:
			return nil, fmt.Errorf("harness: tsv line %d: data outside a table: %q", line, text)
		case cur.Header == nil:
			cur.Header = strings.Split(text, "\t")
		default:
			row := strings.Split(text, "\t")
			if len(row) != len(cur.Header) {
				return nil, fmt.Errorf("harness: tsv line %d: table %q row has %d cells, header has %d",
					line, cur.Title, len(row), len(cur.Header))
			}
			cur.Rows = append(cur.Rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("harness: tsv ended inside table %q (missing blank terminator)", cur.Title)
	}
	return tables, nil
}
