package smq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
)

// publicSchedulers constructs a scheduler through every public
// constructor, keyed by the constructor's name.
var publicSchedulers = map[string][]func() Scheduler[int]{
	"NewStealingMQ":         {func() Scheduler[int] { return NewStealingMQ[int](SMQConfig{Workers: 2}) }},
	"NewStealingMQSkipList": {func() Scheduler[int] { return NewStealingMQSkipList[int](SMQConfig{Workers: 2}) }},
	"NewClassicMultiQueue":  {func() Scheduler[int] { return NewClassicMultiQueue[int](2, 4) }},
	"NewMultiQueue": {func() Scheduler[int] {
		return NewMultiQueue[int](MQConfig{Workers: 2, Insert: InsertBatch, Delete: DeleteBatch})
	}},
	"NewRELD":         {func() Scheduler[int] { return NewRELD[int](2) }},
	"NewEngineeredMQ": {func() Scheduler[int] { return NewEngineeredMQ[int](2) }},
	"NewKLSM": {
		func() Scheduler[int] { return NewKLSM[int](KLSMConfig{Workers: 2}) },
		func() Scheduler[int] { return NewKLSM[int](KLSMConfig{Workers: 2, Relaxation: KLSMStrict}) },
	},
	"NewCBPQ":      {func() Scheduler[int] { return NewCBPQ[int](CBPQConfig{Workers: 2}) }},
	"NewOBIM":      {func() Scheduler[int] { return NewOBIM[int](OBIMConfig{Workers: 2}) }},
	"NewPMOD":      {func() Scheduler[int] { return NewPMOD[int](OBIMConfig{Workers: 2}) }},
	"NewSprayList": {func() Scheduler[int] { return NewSprayList[int](SprayConfig{Workers: 2}) }},
}

// TestPublicAPICoversEveryConstructor scans the package's non-test
// source for exported New* functions whose result mentions Scheduler
// and requires publicSchedulers to hold exactly those, so a new
// constructor fails here until TestPublicAPISchedulers drains it.
func TestPublicAPICoversEveryConstructor(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, f := range pkgs["smq"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "New") || fn.Type.Results == nil {
				continue
			}
			ast.Inspect(fn.Type.Results, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "Scheduler" {
					exported[fn.Name.Name] = true
				}
				return true
			})
		}
	}
	got, want := slices.Sorted(maps.Keys(publicSchedulers)), slices.Sorted(maps.Keys(exported))
	if !slices.Equal(got, want) {
		t.Errorf("publicSchedulers constructs %v, the package exports %v", got, want)
	}
}

// TestPublicAPISchedulers exercises every public constructor through the
// facade, verifying the worker-handle contract end to end.
func TestPublicAPISchedulers(t *testing.T) {
	for name, mks := range publicSchedulers {
		for _, mk := range mks {
			s := mk()
			if s.Workers() != 2 {
				t.Fatalf("%s: Workers = %d", name, s.Workers())
			}
			const n = 2000
			var pending Pending
			pending.Inc(n)
			var wg sync.WaitGroup
			seen := make([]bool, n)
			var mu sync.Mutex
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w := s.Worker(i)
					for j := i; j < n; j += 2 {
						w.Push(uint64(j%101), j)
					}
					var b Backoff
					for !pending.Done() {
						_, v, ok := w.Pop()
						if !ok {
							b.Wait()
							continue
						}
						b.Reset()
						mu.Lock()
						if seen[v] {
							t.Errorf("%s: duplicate %d", name, v)
						}
						seen[v] = true
						mu.Unlock()
						pending.Dec()
					}
				}(i)
			}
			wg.Wait()
			st := s.Stats()
			if st.Pops != n {
				t.Fatalf("%s: Pops = %d, want %d", name, st.Pops, n)
			}
		}
	}
}

func TestPublicAPIGraphAndAlgorithms(t *testing.T) {
	g := GenerateRoadGrid(16, 16, 1)
	if g.N != 256 {
		t.Fatalf("N = %d", g.N)
	}
	want := DijkstraSeq(g, 0)
	s := NewStealingMQ[uint32](SMQConfig{Workers: 2})
	dist, res := SSSP(g, 0, s)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks recorded")
	}

	levels, _ := BFS(g, 0, NewStealingMQ[uint32](SMQConfig{Workers: 2}))
	if levels[0] != 0 || levels[1] == Unreachable {
		t.Fatalf("BFS levels wrong: %v", levels[:4])
	}

	d, _ := AStar(g, 0, uint32(g.N-1), NewStealingMQ[uint32](SMQConfig{Workers: 2}))
	if d != want[g.N-1] {
		t.Fatalf("A* = %d, want %d", d, want[g.N-1])
	}

	w, e, _ := BoruvkaMST(g, NewStealingMQ[uint32](SMQConfig{Workers: 2}))
	if e != g.N-1 || w == 0 {
		t.Fatalf("MST = (%d, %d)", w, e)
	}
}

func TestPublicAPIBuildGraph(t *testing.T) {
	g, err := BuildGraph(2, []GraphEdge{{U: 0, V: 1, W: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d", g.M())
	}
	if _, err := BuildGraph(0, nil, nil); err == nil {
		t.Fatal("BuildGraph(0) accepted")
	}
}

func TestPublicAPIRMAT(t *testing.T) {
	g := GenerateRMAT(8, 4, 3)
	if g.N != 256 || g.M() == 0 {
		t.Fatalf("RMAT: N=%d M=%d", g.N, g.M())
	}
}

func TestPublicAPIPageRank(t *testing.T) {
	g := GenerateRMAT(7, 4, 9)
	pr, res := ResidualPageRank(g, PageRankConfig{}, NewStealingMQ[uint32](SMQConfig{Workers: 2}))
	if len(pr) != g.N || res.Tasks == 0 {
		t.Fatalf("PageRank: len=%d tasks=%d", len(pr), res.Tasks)
	}
	for _, v := range pr {
		if v < 0 {
			t.Fatal("negative rank")
		}
	}
}

func TestPublicAPIRankModel(t *testing.T) {
	res := RunRankModel(RankModelConfig{Queues: 8, Elements: 20000, StealProb: 0.25})
	if res.Removed == 0 {
		t.Fatal("model removed nothing")
	}
	if RankTheoremBound(8, 1, 0.25, 0) <= 0 {
		t.Fatal("bound not positive")
	}
}
