package graph

import (
	"math"

	"repro/internal/xrand"
)

// GenerateRoadGrid builds a road-network stand-in: a rows×cols planar
// grid with 4-neighbour edges plus a sprinkling of diagonal "shortcuts",
// undirected, with integer weights derived from Euclidean length times a
// random detour factor in [1, 1.5]. Every vertex gets a coordinate, so
// the graph supports the A* heuristic; weights satisfy
// w >= ceil(EuclidDist·HeuristicScale), keeping the heuristic admissible.
//
// Road networks (the paper's USA/WEST inputs) are near-planar, bounded-
// degree and high-diameter — exactly the properties this generator
// reproduces, and the ones that make scheduling order matter for
// SSSP/A*.
//
// The graph drawn for a seed is part of the benchmark's definition:
// every bench workload and harness experiment takes its input from here,
// so a change to the output, however small, changes every measured
// number and belongs in a [benchmark]-tagged change of its own.
// TestBenchmarkInputsPinned holds the output fixed bit for bit.
func GenerateRoadGrid(rows, cols int, seed uint64) *CSR {
	if rows < 1 || cols < 1 {
		panic("graph: grid dimensions must be positive")
	}
	rng := xrand.New(seed)
	n := rows * cols
	coords := make([]Coord, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Jitter coordinates slightly so distances are irregular,
			// like real roads.
			coords[r*cols+c] = Coord{
				X: float64(c) + 0.3*rng.Float64(),
				Y: float64(r) + 0.3*rng.Float64(),
			}
		}
	}
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	roadWeight := func(u, v uint32) uint32 {
		d := EuclidDist(coords[u], coords[v])
		detour := 1.0 + 0.5*rng.Float64()
		w := uint32(math.Ceil(d * HeuristicScale * detour))
		if w == 0 {
			w = 1
		}
		return w
	}
	// Sized as if every cell had its diagonal, so append never
	// reallocates.
	edges := make([]Edge, 0, 2*(rows*(cols-1)+(rows-1)*cols+(rows-1)*(cols-1)))
	addUndirected := func(u, v uint32) {
		w := roadWeight(u, v)
		edges = append(edges, Edge{U: u, V: v, W: w}, Edge{U: v, V: u, W: w})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addUndirected(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addUndirected(id(r, c), id(r+1, c))
			}
			// ~20% of cells gain a diagonal, echoing highway shortcuts.
			if r+1 < rows && c+1 < cols && rng.OneIn(5) {
				addUndirected(id(r, c), id(r+1, c+1))
			}
		}
	}
	return MustBuild(n, edges, coords)
}

// RMATParams are the recursive-matrix quadrant probabilities. They must
// sum to 1; DefaultRMATParams gives the standard skewed (a=0.57) setting
// that produces power-law degree distributions.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMATParams is the Graph500-style parameterization.
func DefaultRMATParams() RMATParams {
	return RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}
}

// GenerateRMAT builds a social-network stand-in: a directed R-MAT graph
// with 2^scale vertices and edgeFactor·2^scale edges, edge weights
// uniform in [0, 255] (the paper's own weighting for TWITTER/WEB,
// Table 1). Degree skew and low diameter — the properties that flatten
// task priorities on social graphs — come from the recursive quadrant
// bias.
//
// As with GenerateRoadGrid, the graph drawn for a seed is part of the
// benchmark's definition and TestBenchmarkInputsPinned holds it fixed.
func GenerateRMAT(scale, edgeFactor int, params RMATParams, seed uint64) *CSR {
	if scale < 1 || scale > 30 {
		panic("graph: RMAT scale out of range [1,30]")
	}
	if edgeFactor < 1 {
		panic("graph: RMAT edgeFactor must be positive")
	}
	rng := xrand.New(seed)
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]Edge, 0, m)
	// Each level draws r = Float64() and takes the first of r < A,
	// r < A+B, r < A+B+C that holds. r is k·2^-53 for the 53-bit
	// k = Uint64()>>11, so each compare is k < T on an integer threshold
	// (xrand.Threshold), and the arm taken is the count q of thresholds k has
	// reached, once each threshold is raised to the one before it: that
	// keeps partial sums that fall out of order (a negative B or C) on the
	// arm the first match picks. Arm q sets v's bit to q&1 and u's to q>>1.
	ab := params.A + params.B
	abc := ab + params.C
	tA := xrand.Threshold(params.A)
	tAB := max(xrand.Threshold(ab), tA)
	tABC := max(xrand.Threshold(abc), tAB)
	for i := 0; i < m; i++ {
		var u, v uint64
		for range scale {
			k := rng.Uint64() >> 11
			// k and the thresholds are at most 2^53: k-T wraps, setting
			// the sign bit, exactly when k < T.
			q := 3 - ((k-tA)>>63 + (k-tAB)>>63 + (k-tABC)>>63)
			// Bits enter at the top and shift down a place per level,
			// which keeps every shift count constant.
			v = v>>1 | q<<63
			u = u>>1 | (q>>1)<<63
		}
		u >>= 64 - scale
		v >>= 64 - scale
		if u == v {
			continue // drop self-loops
		}
		edges = append(edges, Edge{U: uint32(u), V: uint32(v), W: uint32(rng.Intn(256))})
	}
	return MustBuild(n, edges, nil)
}

// StandardInputs generates the four benchmark graphs standing in for
// Table 1 at the requested scale factor (1 = smallest sensible size).
// The names mirror the paper's: USA and WEST are road grids, TWITTER and
// WEB are power-law RMAT graphs.
func StandardInputs(scale int) map[string]*CSR {
	if scale < 1 {
		scale = 1
	}
	side := 64 * scale
	rmatScale := 12
	for s := scale; s > 1; s /= 2 {
		rmatScale++
	}
	return map[string]*CSR{
		"USA":     GenerateRoadGrid(2*side, side, 42),
		"WEST":    GenerateRoadGrid(side, side/2+1, 43),
		"TWITTER": GenerateRMAT(rmatScale, 16, DefaultRMATParams(), 44),
		"WEB":     GenerateRMAT(rmatScale, 20, DefaultRMATParams(), 45),
	}
}
