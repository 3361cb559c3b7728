// Package graph provides the graph substrate for the paper's evaluation
// (§5): a compact CSR representation and synthetic generators standing in
// for the paper's input graphs (Table 1 — the generators' doc comments
// give the substitution rationale). The package reads no graph files: an
// outside graph, such as a real road network, comes in as an edge list
// through smq.BuildGraph.
package graph

import (
	"fmt"
	"math"
)

// Coord is a vertex coordinate used by the A* heuristic. For road-style
// graphs these are planar positions; the units only need to be consistent
// with the weight scale (see HeuristicScale).
type Coord struct {
	X, Y float64
}

// Edge is one directed edge for graph construction.
type Edge struct {
	U, V uint32
	W    uint32
}

// CSR is a directed graph in compressed-sparse-row form. Weights are
// uint32; vertex ids are dense in [0, N).
type CSR struct {
	N       int
	Offsets []int64  // len N+1; edge range of u is [Offsets[u], Offsets[u+1])
	Targets []uint32 // len M
	Weights []uint32 // len M
	Coords  []Coord  // len N when present, nil otherwise
}

// M reports the number of directed edges.
func (g *CSR) M() int { return len(g.Targets) }

// Neighbors returns u's adjacency as parallel target/weight slices.
func (g *CSR) Neighbors(u uint32) ([]uint32, []uint32) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	return g.Targets[lo:hi], g.Weights[lo:hi]
}

// OutDegree reports the out-degree of u.
func (g *CSR) OutDegree(u uint32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// MaxOutDegreeVertex returns the vertex with the largest out-degree —
// used as the default source on power-law graphs so traversals hit the
// giant component.
func (g *CSR) MaxOutDegreeVertex() uint32 {
	best, bestDeg := uint32(0), -1
	for u := 0; u < g.N; u++ {
		if d := g.OutDegree(uint32(u)); d > bestDeg {
			best, bestDeg = uint32(u), d
		}
	}
	return best
}

// Build assembles a CSR from an edge list. Edges keep their input order
// within each source bucket. coords may be nil.
func Build(n int, edges []Edge, coords []Coord) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: vertex count %d must be positive", n)
	}
	if coords != nil && len(coords) != n {
		return nil, fmt.Errorf("graph: %d coords for %d vertices", len(coords), n)
	}
	g := &CSR{
		N:       n,
		Offsets: make([]int64, n+1),
		Targets: make([]uint32, len(edges)),
		Weights: make([]uint32, len(edges)),
		Coords:  coords,
	}
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		g.Offsets[e.U+1]++
	}
	for i := 1; i <= n; i++ {
		g.Offsets[i] += g.Offsets[i-1]
	}
	next := make([]int64, n)
	copy(next, g.Offsets[:n])
	for _, e := range edges {
		i := next[e.U]
		next[e.U]++
		g.Targets[i] = e.V
		g.Weights[i] = e.W
	}
	return g, nil
}

// MustBuild is Build for known-good inputs (generators, tests).
func MustBuild(n int, edges []Edge, coords []Coord) *CSR {
	g, err := Build(n, edges, coords)
	if err != nil {
		panic(err)
	}
	return g
}

// EuclidDist is the planar distance between two coordinates.
func EuclidDist(a, b Coord) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// HeuristicScale converts coordinate distance into the integer weight
// domain. Generators guarantee w(u,v) >= ceil(EuclidDist(u,v) *
// HeuristicScale), which makes Heuristic admissible for A*.
const HeuristicScale = 100

// Heuristic returns an admissible A* lower bound on the remaining path
// weight from u to target, in weight units. It is the equirectangular
// approximation of the paper applied to planar coordinates (for synthetic
// planar graphs the equirectangular formula reduces to Euclidean
// distance). Graphs without coordinates get the zero heuristic.
func (g *CSR) Heuristic(u, target uint32) uint64 {
	if g.Coords == nil {
		return 0
	}
	return uint64(math.Floor(EuclidDist(g.Coords[u], g.Coords[target]) * HeuristicScale))
}

// Stats summarizes a graph for Table 1-style reporting.
type Stats struct {
	Name      string
	N         int
	M         int
	MaxDeg    int
	AvgDeg    float64
	HasCoords bool
}

// Stat computes summary statistics.
func (g *CSR) Stat(name string) Stats {
	maxDeg := 0
	for u := 0; u < g.N; u++ {
		if d := g.OutDegree(uint32(u)); d > maxDeg {
			maxDeg = d
		}
	}
	return Stats{
		Name:      name,
		N:         g.N,
		M:         g.M(),
		MaxDeg:    maxDeg,
		AvgDeg:    float64(g.M()) / float64(g.N),
		HasCoords: g.Coords != nil,
	}
}
