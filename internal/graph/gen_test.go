package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/xrand"
)

// graphHash is FNV-1a 64 over g's N, Offsets, Targets, Weights and
// Coords (each coordinate as math.Float64bits), every value
// little-endian at its own width, in that order.
func graphHash(g *CSR) uint64 {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(g.N))
	for _, o := range g.Offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	for _, t := range g.Targets {
		buf = binary.LittleEndian.AppendUint32(buf, t)
	}
	for _, w := range g.Weights {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	for _, c := range g.Coords {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Y))
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// TestBenchmarkInputsPinned pins the generators' output. The graphs are
// the inputs of every benchmark workload and harness experiment, so a
// change to them is a change to the benchmark's definition: the
// constants below were taken from the switch-on-Float64 RMAT loop and
// the append-grown road grid, and a faster generator must reproduce
// them bit for bit. The rmat and road rows are the instances the repo
// benchmark builds for seed 1 (seed*4 + i).
func TestBenchmarkInputsPinned(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *CSR
		want uint64
	}{
		{"rmat-16-16/4", func() *CSR { return GenerateRMAT(16, 16, DefaultRMATParams(), 4) }, 0x9ec2d8726752bd15},
		{"rmat-16-16/5", func() *CSR { return GenerateRMAT(16, 16, DefaultRMATParams(), 5) }, 0xc06401fb6c354c76},
		{"rmat-16-16/6", func() *CSR { return GenerateRMAT(16, 16, DefaultRMATParams(), 6) }, 0x9f04d20b12ffd1f1},
		{"rmat-16-16/7", func() *CSR { return GenerateRMAT(16, 16, DefaultRMATParams(), 7) }, 0x3dd325c08a1762cb},
		{"road-400x400/4", func() *CSR { return GenerateRoadGrid(400, 400, 4) }, 0xd8040b9a965c5710},
		{"road-400x400/5", func() *CSR { return GenerateRoadGrid(400, 400, 5) }, 0x51599d7123b4f0e2},
		{"road-400x400/6", func() *CSR { return GenerateRoadGrid(400, 400, 6) }, 0x342d6026f126c5b0},
		{"road-400x400/7", func() *CSR { return GenerateRoadGrid(400, 400, 7) }, 0x7a7dff4a3be892c9},
	}
	for _, c := range cases {
		if got := graphHash(c.gen()); got != c.want {
			t.Errorf("%s: hash %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
	standard := map[string]uint64{
		"USA":     0x59be5874c71c7fbe,
		"WEST":    0xacf6f406cf3739b7,
		"TWITTER": 0x3de92bf158e21253,
		"WEB":     0x628993acd2fb519e,
	}
	gs := StandardInputs(1)
	if len(gs) != len(standard) {
		t.Errorf("StandardInputs(1) has %d graphs, pinned %d", len(gs), len(standard))
	}
	for name, want := range standard {
		if got := graphHash(gs[name]); got != want {
			t.Errorf("StandardInputs(1)[%s]: hash %#016x, pinned %#016x", name, got, want)
		}
	}
}

// TestRMATThresholdsExact checks the algebra GenerateRMAT's descent
// rests on: for every k a 53-bit draw can take, k < xrand.Threshold(t)
// decides exactly what Float64's float64(k)·2^-53 < t decides.
func TestRMATThresholdsExact(t *testing.T) {
	rng := xrand.New(1)
	ts := []float64{0, 1, -0.25, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0), 0.5, 1.0 / 3}
	d := DefaultRMATParams()
	ts = append(ts, d.A, d.A+d.B, d.A+d.B+d.C)
	for i := 0; i < 200; i++ {
		p := RMATParams{A: rng.Float64(), B: rng.Float64(), C: rng.Float64()}
		ts = append(ts, p.A, p.A+p.B, p.A+p.B+p.C, rng.Float64()*4-2)
	}
	const top = uint64(1)<<53 - 1
	for _, th := range ts {
		T := xrand.Threshold(th)
		if T > 1<<53 {
			t.Fatalf("t=%v: threshold %d above 2^53", th, T)
		}
		ks := []uint64{0, T - 1, T, T + 1, top}
		for j := 0; j < 64; j++ {
			ks = append(ks, rng.Uint64()>>11)
		}
		for _, k := range ks {
			if k > top {
				continue // T-1 wrapped at T = 0, or T+1 past the top draw
			}
			if want, got := float64(k)*(1.0/(1<<53)) < th, k < T; got != want {
				t.Fatalf("t=%v k=%d: integer decision %v, float %v", th, k, got, want)
			}
		}
	}
}

// rmatSwitchEdges is GenerateRMAT's edge list as the switch-on-Float64
// loop produced it, kept as the reference for parameters the pinned
// hashes do not cover.
func rmatSwitchEdges(scale, edgeFactor int, params RMATParams, seed uint64) []Edge {
	rng := xrand.New(seed)
	m := edgeFactor << scale
	var edges []Edge
	ab := params.A + params.B
	abc := ab + params.C
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < params.A:
			case r < ab:
				v |= 1 << bit
			case r < abc:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: uint32(u), V: uint32(v), W: uint32(rng.Intn(256))})
	}
	return edges
}

// TestRMATMatchesSwitchReference runs the branch-free descent against
// the switch on parameters that do not sum to one, whose partial sums
// fall out of order, or that are NaN: every arm of the switch must come
// out the same.
func TestRMATMatchesSwitchReference(t *testing.T) {
	rng := xrand.New(3)
	params := []RMATParams{
		DefaultRMATParams(),
		{A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{A: 1, B: 0, C: 0, D: 0},
		{A: 0, B: 0, C: 0, D: 1},
		{A: 0.5, B: -0.3, C: 0.4, D: 0.4}, // A+B below A
		{A: 0.2, B: 0.5, C: -0.6, D: 0.9}, // A+B+C below A+B and A
		{A: -1, B: 1.2, C: 0.1, D: 0},     // negative first threshold
		{A: 0.3, B: math.NaN(), C: 0.2},   // NaN partial sums
		{A: math.NaN(), B: 0.5, C: 0.2},   // NaN first threshold
		{A: 0.4, B: 0.4, C: 0.4, D: -0.2}, // sum past one
		{A: math.Inf(1), B: math.Inf(-1)}, // Inf, then NaN
	}
	for i := 0; i < 20; i++ {
		params = append(params, RMATParams{A: rng.Float64()*1.4 - 0.2, B: rng.Float64()*1.4 - 0.2, C: rng.Float64()*1.4 - 0.2})
	}
	for i, p := range params {
		for _, scale := range []int{1, 5, 9} {
			seed := uint64(i*31 + scale)
			want := MustBuild(1<<scale, rmatSwitchEdges(scale, 4, p, seed), nil)
			got := GenerateRMAT(scale, 4, p, seed)
			if graphHash(got) != graphHash(want) {
				t.Fatalf("params %+v scale %d: graph differs from the switch reference", p, scale)
			}
		}
	}
}

func BenchmarkGenerateRMAT(b *testing.B) {
	benchmarkGenerator(b, func(seed uint64) *CSR { return GenerateRMAT(16, 16, DefaultRMATParams(), seed) })
}

func BenchmarkGenerateRoadGrid(b *testing.B) {
	benchmarkGenerator(b, func(seed uint64) *CSR { return GenerateRoadGrid(400, 400, seed) })
}

// benchmarkGenerator reports ns per generated edge alongside ns/op.
func benchmarkGenerator(b *testing.B, gen func(seed uint64) *CSR) {
	b.ReportAllocs()
	edges := 0
	for i := 0; i < b.N; i++ {
		edges += gen(uint64(i)).M()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}
