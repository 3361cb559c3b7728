package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadDIMACS parses a 9th DIMACS Implementation Challenge shortest-path
// graph ("p sp N M" header, "a U V W" arc lines, 1-based vertex ids) —
// the format of the paper's USA/WEST road inputs. Comments ("c ...") are
// ignored. The file must hold one problem line and exactly M arcs, so a
// truncated file is an error, not a smaller graph.
func ReadDIMACS(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n, m int
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == 'c' {
			continue
		}
		switch text[0] {
		case 'p':
			if n != 0 {
				return nil, fmt.Errorf("graph: line %d: second problem line", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("graph: line %d: bad problem line %q", line, text)
			}
			var err error
			n, err = strconv.Atoi(fields[2])
			if err != nil || n <= 0 || uint64(n) > math.MaxUint32 { // ids are uint32
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[2])
			}
			m, err = strconv.Atoi(fields[3])
			if err != nil || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad edge count %q", line, fields[3])
			}
			// The header is a claim, not a size: append grows past this.
			edges = make([]Edge, 0, min(m, preallocLimit))
		case 'a':
			if n == 0 {
				return nil, fmt.Errorf("graph: line %d: arc before problem line", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: bad arc line %q", line, text)
			}
			u, err1 := strconv.ParseUint(fields[1], 10, 32)
			v, err2 := strconv.ParseUint(fields[2], 10, 32)
			w, err3 := strconv.ParseUint(fields[3], 10, 32)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad arc numbers %q", line, text)
			}
			if u < 1 || v < 1 || int(u) > n || int(v) > n {
				return nil, fmt.Errorf("graph: line %d: vertex out of range", line)
			}
			edges = append(edges, Edge{U: uint32(u - 1), V: uint32(v - 1), W: uint32(w)})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading DIMACS: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	if len(edges) != m {
		return nil, fmt.Errorf("graph: %d arcs, problem line declares %d", len(edges), m)
	}
	return Build(n, edges, nil)
}

// preallocLimit caps what a reader allocates on a header's word alone;
// past it, storage grows with the data actually read.
const preallocLimit = 1 << 16

// WriteDIMACS emits the graph in DIMACS shortest-path format.
func WriteDIMACS(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p sp %d %d\n", g.N, g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N; u++ {
		ts, ws := g.Neighbors(uint32(u))
		for i, v := range ts {
			if _, err := fmt.Fprintf(bw, "a %d %d %d\n", u+1, v+1, ws[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

const binMagic = uint32(0x534d5147) // "SMQG"

// WriteBinary serializes the graph (including coordinates) in a compact
// little-endian format for fast reloads by cmd/graphgen consumers.
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{uint64(binMagic), uint64(g.N), uint64(g.M())}
	hasCoords := uint64(0)
	if g.Coords != nil {
		hasCoords = 1
	}
	hdr = append(hdr, hasCoords)
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Targets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
		return err
	}
	if g.Coords != nil {
		for _, c := range g.Coords {
			if err := binary.Write(bw, binary.LittleEndian, []float64{c.X, c.Y}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. It reads each
// array in bounded chunks, so a truncated file fails with
// io.ErrUnexpectedEOF having allocated about what it held, not what its
// header claimed.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: reading binary header: %w", err)
		}
	}
	if uint32(hdr[0]) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	if hdr[1] == 0 || hdr[1] > math.MaxUint32 || hdr[2] > 1<<34 || hdr[3] > 1 {
		return nil, fmt.Errorf("graph: implausible header n=%d m=%d coords=%d", hdr[1], hdr[2], hdr[3])
	}
	n, m := int(hdr[1]), int(hdr[2])
	g := &CSR{N: n}
	var err error
	if g.Offsets, err = readLE[int64](br, n+1); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.Targets, err = readLE[uint32](br, m); err != nil {
		return nil, fmt.Errorf("graph: reading targets: %w", err)
	}
	if g.Weights, err = readLE[uint32](br, m); err != nil {
		return nil, fmt.Errorf("graph: reading weights: %w", err)
	}
	if hdr[3] == 1 {
		xy, err := readLE[float64](br, 2*n)
		if err != nil {
			return nil, fmt.Errorf("graph: reading coords: %w", err)
		}
		g.Coords = make([]Coord, n)
		for i := range g.Coords {
			g.Coords[i] = Coord{X: xy[2*i], Y: xy[2*i+1]}
		}
	}
	// Validate structural invariants so corrupt files fail loudly.
	if g.Offsets[0] != 0 || g.Offsets[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt offsets")
	}
	for i := 0; i < n; i++ {
		if g.Offsets[i] > g.Offsets[i+1] {
			return nil, fmt.Errorf("graph: non-monotone offsets at %d", i)
		}
	}
	for _, t := range g.Targets {
		if int(t) >= n {
			return nil, fmt.Errorf("graph: target %d out of range", t)
		}
	}
	return g, nil
}

// readLE reads count little-endian values, preallocLimit at a time. The
// slice grows geometrically with what was read and is exactly count long
// at the end.
func readLE[T int64 | uint32 | float64](r io.Reader, count int) ([]T, error) {
	out := make([]T, 0, min(count, preallocLimit))
	for len(out) < count {
		k := min(count-len(out), preallocLimit)
		if len(out)+k > cap(out) {
			out = append(make([]T, 0, min(count, max(2*cap(out), len(out)+k))), out...)
		}
		if err := binary.Read(r, binary.LittleEndian, out[len(out):len(out)+k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return nil, err
		}
		out = out[:len(out)+k]
	}
	return out, nil
}
