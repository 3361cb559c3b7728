package algos

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestSequentialTaskCountsPinned pins the task counts of the sequential
// baselines on the benchmark's graph inputs: road grids of 400 x 400 and
// RMAT graphs of scale 16, edge factor 16, graph seeds 4 to 7 (the four
// instances bench/ draws from its seed 1), from the sources bench/ uses —
// a vertex drawn from a window at the centre of the grid, and the RMAT
// graph's hub. DijkstraSeq's count is the benchmark's useful-task
// denominator, so a change to the sequential heap that moves the pop
// order among equal priorities, and with it the count of stale entries,
// moves every work-increase figure. Such a change must show here.
func TestSequentialTaskCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight benchmark-sized graphs")
	}
	const (
		roadSide  = 400
		rmatScale = 16
		rmatEdges = 16
	)
	pins := []struct {
		graph         string
		seed          uint64
		dijkstra, bfs uint64
	}{
		{"road", 4, 190754, 160000},
		{"road", 5, 191072, 160000},
		{"road", 6, 190827, 160000},
		{"road", 7, 190607, 160000},
		{"rmat", 4, 92201, 40470},
		{"rmat", 5, 92441, 40438},
		{"rmat", 6, 91954, 40319},
		{"rmat", 7, 92024, 40297},
	}
	for _, pin := range pins {
		t.Run(fmt.Sprintf("%s/%d", pin.graph, pin.seed), func(t *testing.T) {
			var g *graph.CSR
			var src uint32
			if pin.graph == "road" {
				g = graph.GenerateRoadGrid(roadSide, roadSide, pin.seed)
				r := xrand.New(pin.seed ^ 0x726f6164)
				const window = roadSide / 8
				row := (roadSide-window)/2 + r.Intn(window)
				col := (roadSide-window)/2 + r.Intn(window)
				src = uint32(row*roadSide + col)
			} else {
				g = graph.GenerateRMAT(rmatScale, rmatEdges, graph.DefaultRMATParams(), pin.seed)
				src = g.MaxOutDegreeVertex()
			}
			_, dij := DijkstraSeq(g, src)
			_, bfs := BFSSeqPQ(g, src)
			if dij.Tasks != pin.dijkstra || bfs.Tasks != pin.bfs {
				t.Errorf("DijkstraSeq %d tasks, BFSSeqPQ %d; pinned %d and %d", dij.Tasks, bfs.Tasks, pin.dijkstra, pin.bfs)
			}
		})
	}
}
