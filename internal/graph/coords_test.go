package graph

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestCoordsRoundTrip(t *testing.T) {
	g := GenerateRoadGrid(6, 8, 3)
	var buf bytes.Buffer
	if err := WriteDIMACSCoords(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2 := MustBuild(g.N, nil, nil)
	if err := ReadDIMACSCoords(&buf, g2); err != nil {
		t.Fatal(err)
	}
	for i := range g.Coords {
		// Integer micro-degree quantization loses up to CoordScale.
		if math.Abs(g.Coords[i].X-g2.Coords[i].X) > 2*CoordScale ||
			math.Abs(g.Coords[i].Y-g2.Coords[i].Y) > 2*CoordScale {
			t.Fatalf("coord %d changed: %+v vs %+v", i, g.Coords[i], g2.Coords[i])
		}
	}
}

func TestCoordsParsing(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 1, 1}}, nil)
	in := `c comment
p aux sp co 2
v 1 -73990000 40750000
v 2 -74000000 40700000
`
	if err := ReadDIMACSCoords(strings.NewReader(in), g); err != nil {
		t.Fatal(err)
	}
	if g.Coords == nil || math.Abs(g.Coords[0].X+73.99) > 1e-9 {
		t.Fatalf("coords = %+v", g.Coords)
	}
}

func TestCoordsErrors(t *testing.T) {
	g := MustBuild(2, nil, nil)
	cases := map[string]string{
		"bad header":   "p aux xx co 2\nv 1 0 0\nv 2 0 0\n",
		"wrong count":  "p aux sp co 5\nv 1 0 0\nv 2 0 0\n",
		"bad vertex":   "p aux sp co 2\nv one 0 0\nv 2 0 0\n",
		"out of range": "p aux sp co 2\nv 9 0 0\nv 2 0 0\n",
		"unknown":      "p aux sp co 2\nz\n",
		"missing":      "p aux sp co 2\nv 1 0 0\n",
	}
	for name, in := range cases {
		if err := ReadDIMACSCoords(strings.NewReader(in), g); err == nil {
			t.Errorf("%s: accepted invalid input", name)
		}
	}
}

func TestWriteCoordsWithoutCoords(t *testing.T) {
	g := MustBuild(2, nil, nil)
	if err := WriteDIMACSCoords(&bytes.Buffer{}, g); err == nil {
		t.Fatal("writing absent coords should fail")
	}
}

// declaredVertices is the vertex count on in's first DIMACS problem
// line, or 0 when there is none.
func declaredVertices(in string) int64 {
	for _, line := range strings.Split(in, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "p") {
			if fields := strings.Fields(line); len(fields) == 4 {
				n, _ := strconv.ParseInt(fields[2], 10, 64)
				return n
			}
			return 0
		}
	}
	return 0
}

func FuzzReadDIMACS(f *testing.F) {
	f.Add("p sp 3 2\na 1 2 10\na 2 3 20\n")
	f.Add("c x\np sp 1 0\n")
	f.Add("a 1 2 3\n")
	f.Add("p sp 0 0\n")
	f.Add("p sp 2 1\na 1 2 4294967295\n")
	for _, in := range []string{dimacsHugeM, dimacsWideN, dimacsSecondP, dimacsShort, dimacsOver} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// A legal header makes Build allocate N+1 offsets: that is size,
		// not a bug, and past 2^20 vertices it would run a fuzz worker
		// out of memory. Counts past uint32 are rejected, so kept.
		if n := declaredVertices(in); n > 1<<20 && n <= math.MaxUint32 {
			t.Skip()
		}
		// Must never panic; errors are fine.
		g, err := ReadDIMACS(strings.NewReader(in))
		if err == nil && g != nil {
			// Returned graphs must be structurally valid.
			if g.Offsets[g.N] != int64(g.M()) {
				t.Fatalf("invalid offsets on accepted input %q", in)
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	g := GenerateRoadGrid(3, 3, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	for _, c := range hostileBinary {
		f.Add(c.in)
	}
	// No vertex-count skip here, unlike FuzzReadDIMACS: ReadBinary's
	// arrays are read from the input, so what it allocates is bounded by
	// the input's length.
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err == nil && g != nil {
			for _, tgt := range g.Targets {
				if int(tgt) >= g.N {
					t.Fatalf("accepted graph with out-of-range target")
				}
			}
		}
	})
}
