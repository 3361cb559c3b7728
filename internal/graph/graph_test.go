package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func tinyGraph() *CSR {
	//      0 --1--> 1 --2--> 2
	//      |                 ^
	//      +-------7---------+
	return MustBuild(3, []Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 0, V: 2, W: 7},
	}, nil)
}

func TestBuildBasics(t *testing.T) {
	g := tinyGraph()
	if g.N != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 || ts[0] != 1 || ws[0] != 1 || ts[1] != 2 || ws[1] != 7 {
		t.Fatalf("neighbors(0) = %v %v", ts, ws)
	}
	if g.OutDegree(2) != 0 {
		t.Fatalf("deg(2) = %d", g.OutDegree(2))
	}
	if g.MaxOutDegreeVertex() != 0 {
		t.Fatalf("max-degree vertex = %d", g.MaxOutDegreeVertex())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(0, nil, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Build(2, []Edge{{U: 0, V: 5, W: 1}}, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := Build(2, nil, make([]Coord, 3)); err == nil {
		t.Error("mismatched coords accepted")
	}
}

func TestBuildPreservesMultiEdges(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1, 5}, {0, 1, 9}}, nil)
	ts, ws := g.Neighbors(0)
	if len(ts) != 2 || ws[0] != 5 || ws[1] != 9 {
		t.Fatalf("multi-edges mangled: %v %v", ts, ws)
	}
}

func TestRoadGridProperties(t *testing.T) {
	g := GenerateRoadGrid(20, 30, 7)
	if g.N != 600 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Coords == nil {
		t.Fatal("road grid missing coordinates")
	}
	if !g.Undirected() {
		t.Fatal("road grid not undirected")
	}
	if _, comps := g.ConnectedComponents(); comps != 1 {
		t.Fatalf("road grid has %d components, want 1", comps)
	}
	// Degrees bounded: grid + diagonals gives max degree 8.
	degs := g.DegreeHistogram()
	if degs[len(degs)-1] > 8 {
		t.Fatalf("max degree %d too high for a road grid", degs[len(degs)-1])
	}
	// Admissibility invariant: w >= ceil(dist * scale).
	for u := 0; u < g.N; u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			min := math.Ceil(EuclidDist(g.Coords[u], g.Coords[v]) * HeuristicScale)
			if float64(ws[i]) < min {
				t.Fatalf("edge (%d,%d) weight %d below Euclidean bound %v", u, v, ws[i], min)
			}
		}
	}
}

func TestRoadGridDeterministic(t *testing.T) {
	a := GenerateRoadGrid(10, 10, 5)
	b := GenerateRoadGrid(10, 10, 5)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts %d vs %d", a.M(), b.M())
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestRMATProperties(t *testing.T) {
	g := GenerateRMAT(10, 8, DefaultRMATParams(), 11)
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	if g.M() < 7*1024 { // some self-loops dropped
		t.Fatalf("M = %d, want close to %d", g.M(), 8*1024)
	}
	for _, w := range g.Weights {
		if w > 255 {
			t.Fatalf("weight %d out of [0,255]", w)
		}
	}
	// Power-law check: the top vertex should hold far more than the mean
	// degree.
	degs := g.DegreeHistogram()
	mean := float64(g.M()) / float64(g.N)
	if float64(degs[len(degs)-1]) < 5*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", degs[len(degs)-1], mean)
	}
}

func TestUniformRandom(t *testing.T) {
	g := GenerateUniformRandom(100, 1000, 50, 3)
	if g.N != 100 || g.M() != 1000 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	for u := 0; u < g.N; u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			if v == uint32(u) {
				t.Fatal("self-loop generated")
			}
			if ws[i] < 1 || ws[i] > 50 {
				t.Fatalf("weight %d out of range", ws[i])
			}
		}
	}
}

func TestStandardInputs(t *testing.T) {
	gs := StandardInputs(1)
	for _, name := range []string{"USA", "WEST", "TWITTER", "WEB"} {
		g, ok := gs[name]
		if !ok {
			t.Fatalf("missing standard input %s", name)
		}
		if g.N == 0 || g.M() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if gs["USA"].Coords == nil || gs["WEST"].Coords == nil {
		t.Fatal("road inputs need coordinates for A*")
	}
	if gs["USA"].N <= gs["WEST"].N {
		t.Fatal("USA should be larger than WEST, as in Table 1")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := GenerateRoadGrid(6, 7, 9)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", g2.N, g2.M(), g.N, g.M())
	}
	for i := range g.Targets {
		if g.Targets[i] != g2.Targets[i] || g.Weights[i] != g2.Weights[i] {
			t.Fatal("round trip changed edges")
		}
	}
}

func TestDIMACSParsing(t *testing.T) {
	in := `c sample graph
p sp 3 2
a 1 2 10
a 2 3 20
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	ts, ws := g.Neighbors(0)
	if len(ts) != 1 || ts[0] != 1 || ws[0] != 10 {
		t.Fatalf("bad arc: %v %v", ts, ws)
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := map[string]string{
		"no header":     "a 1 2 3\n",
		"bad header":    "p xx 3 2\n",
		"out of range":  "p sp 2 1\na 1 5 1\n",
		"bad arc":       "p sp 2 1\na 1 two 1\n",
		"unknown":       "p sp 2 1\nz 1 2 3\n",
		"missing plist": "c only comments\n",
		"huge m":        dimacsHugeM,
		"n past uint32": dimacsWideN,
		"second plist":  dimacsSecondP,
		"arcs short":    dimacsShort,
		"arcs over":     dimacsOver,
	}
	for name, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid input", name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*CSR{
		GenerateRoadGrid(5, 8, 1),                  // with coords
		GenerateRMAT(8, 4, DefaultRMATParams(), 2), // without coords
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N != g.N || g2.M() != g.M() {
			t.Fatalf("size changed: %d/%d", g2.N, g2.M())
		}
		for i := range g.Targets {
			if g.Targets[i] != g2.Targets[i] || g.Weights[i] != g2.Weights[i] {
				t.Fatal("edges changed")
			}
		}
		if (g.Coords == nil) != (g2.Coords == nil) {
			t.Fatal("coords presence changed")
		}
		if g.Coords != nil {
			for i := range g.Coords {
				if g.Coords[i] != g2.Coords[i] {
					t.Fatal("coords changed")
				}
			}
		}
	}
}

// Hostile DIMACS inputs: each once made the reader panic or accept a
// graph it should not. FuzzReadDIMACS seeds on them too.
const (
	dimacsHugeM   = "p sp 1 9000000000000000000\n" // preallocated from the header
	dimacsWideN   = "p sp 4294967296 0\n"          // vertex ids are uint32
	dimacsSecondP = "p sp 3 1\na 1 2 3\np sp 3 1\na 2 3 4\n"
	dimacsShort   = "p sp 3 2\na 1 2 10\n" // a truncated file
	dimacsOver    = "p sp 3 1\na 1 2 10\na 2 3 20\n"
)

// binaryHeader is a WriteBinary header with the given fields and nothing
// after it.
func binaryHeader(n, m, coords uint64) []byte {
	var buf bytes.Buffer
	for _, h := range []uint64{uint64(binMagic), n, m, coords} {
		binary.Write(&buf, binary.LittleEndian, h)
	}
	return buf.Bytes()
}

// hostileBinary are headers that once made ReadBinary panic or allocate
// far past the input's length. FuzzReadBinary seeds on them too.
var hostileBinary = []struct {
	name string
	in   []byte
}{
	{"n = 2^62", binaryHeader(1<<62, 0, 0)},
	{"n past uint32", binaryHeader(1<<32, 0, 0)},
	{"m past bound", binaryHeader(2, 1<<40, 0)},
	{"coords flag 2", binaryHeader(2, 0, 2)},
	{"n = 2^31, empty", binaryHeader(1<<31, 1<<34, 1)},
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all............."))); err == nil {
		t.Error("garbage accepted")
	}
	for _, c := range hostileBinary {
		if _, err := ReadBinary(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted invalid input", c.name)
		}
	}
}

// TestBinaryTruncated cuts a written graph at every length: each cut
// past the header must fail with io.ErrUnexpectedEOF, and a header that
// claims 2^31 vertices and 2^34 edges over 1 KB of data must fail having
// allocated about the data, not the claim (~200 GB).
func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, GenerateRoadGrid(3, 4, 1)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 32; cut < len(full); cut++ {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d bytes: err = %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
	in := append(binaryHeader(1<<31, 1<<34, 1), make([]byte, 1024)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("short body: allocated %d bytes", alloc)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, rows, cols uint8) bool {
		g := GenerateRoadGrid(int(rows%8)+1, int(cols%8)+1, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil || g2.N != g.N || g2.M() != g.M() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two disjoint pairs plus an isolated vertex.
	g := MustBuild(5, []Edge{{0, 1, 1}, {2, 3, 1}}, nil)
	labels, comps := g.ConnectedComponents()
	if comps != 3 {
		t.Fatalf("components = %d, want 3", comps)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Fatalf("bad labels: %v", labels)
	}
}

func TestHeuristicZeroWithoutCoords(t *testing.T) {
	g := tinyGraph()
	if h := g.Heuristic(0, 2); h != 0 {
		t.Fatalf("coordless heuristic = %d", h)
	}
}

func TestStat(t *testing.T) {
	g := GenerateRoadGrid(4, 4, 1)
	s := g.Stat("test")
	if s.N != 16 || s.M != g.M() || !s.HasCoords || s.MaxDeg < 2 {
		t.Fatalf("bad stats: %+v", s)
	}
}
