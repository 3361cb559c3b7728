package smq

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

// TestExportsFollowTheRule enforces the package doc's export rule: an
// exported identifier of smq.go stays only if an output-checked Example
// in example_test.go uses it, non-test code of the bench module uses it,
// or it appears in the signature of an identifier that stays.
func TestExportsFollowTheRule(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		t.Helper()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// sig maps each exported identifier of smq.go to the part of its
	// declaration that callers see: a function's type, a type's
	// parameters and definition, a constant's or variable's type.
	sig := map[string][]ast.Node{}
	for _, d := range parse("smq.go").Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				sig[d.Name.Name] = []ast.Node{d.Type}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						sig[s.Name.Name] = []ast.Node{s.Type}
						if s.TypeParams != nil {
							sig[s.Name.Name] = append(sig[s.Name.Name], s.TypeParams)
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							sig[n.Name] = nil
							if s.Type != nil {
								sig[n.Name] = []ast.Node{s.Type}
							}
						}
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	keep := func(name string) {
		if _, ok := sig[name]; ok {
			kept[name] = true
		}
	}
	ex := parse("example_test.go")
	for _, e := range doc.Examples(ex) {
		if e.Output == "" && !e.EmptyOutput {
			continue
		}
		packageRefs(e.Code, localName(ex), keep)
	}
	benchFiles, err := filepath.Glob("bench/*.go")
	if err != nil || len(benchFiles) == 0 {
		t.Fatalf("no bench sources: %v", err)
	}
	for _, path := range benchFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f := parse(path)
		if pkg := localName(f); pkg != "" {
			packageRefs(f, pkg, keep)
		}
	}
	// Close over signatures: what a kept identifier's declaration names
	// stays with it.
	work := slices.Collect(maps.Keys(kept))
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		for _, n := range sig[name] {
			localIdents(n, func(id string) {
				if _, ok := sig[id]; ok && !kept[id] {
					kept[id] = true
					work = append(work, id)
				}
			})
		}
	}

	for _, name := range slices.Sorted(maps.Keys(sig)) {
		if !kept[name] {
			t.Errorf("smq.%s is exported, but no output-checked Example, bench/ source or kept signature uses it", name)
		}
	}
	t.Logf("smq.go exports %d identifiers", len(sig))
}

// localName is the name under which f imports the root package, or ""
// if it does not.
func localName(f *ast.File) string {
	for _, im := range f.Imports {
		if im.Path.Value == `"repro"` {
			if im.Name != nil {
				return im.Name.Name
			}
			return "smq"
		}
	}
	return ""
}

// packageRefs calls use with X for every pkg.X selector under n.
func packageRefs(n ast.Node, pkg string, use func(string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
				use(sel.Sel.Name)
			}
		}
		return true
	})
}

// localIdents calls use for every unqualified identifier under n; the
// selected name of a pkg.X selector belongs to another package.
func localIdents(n ast.Node, use func(string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			localIdents(n.X, use)
			return false
		case *ast.Ident:
			use(n.Name)
		}
		return true
	})
}

// TestEveryUnexportedFuncHasACaller fails on an unexported function or
// method that no non-test file of its own package names: code that only
// its tests call is dead weight. The match is by name (no type checking),
// so a reference is any identifier of that name outside the function's
// own declaration, an interface method included; bench/ is a module of
// its own and is not scanned.
func TestEveryUnexportedFuncHasACaller(t *testing.T) {
	pkgs := map[string][]string{} // directory → its non-test Go files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		type fn struct {
			name string
			pos  token.Pos
		}
		var decls []fn
		refs := map[string]int{}
		for _, path := range pkgs[dir] {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok && !d.Name.IsExported() && d.Name.Name != "init" && d.Name.Name != "main" {
					decls = append(decls, fn{d.Name.Name, d.Pos()})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if d, ok := n.(*ast.FuncDecl); ok {
					// A function's own name and its recursive calls are
					// not callers.
					ast.Inspect(d, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.Name != d.Name.Name {
							refs[id.Name]++
						}
						return true
					})
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name]++
				}
				return true
			})
		}
		for _, d := range decls {
			if refs[d.name] == 0 {
				t.Errorf("%s: %s is unexported and no non-test file of its package calls it", fset.Position(d.pos), d.name)
			}
		}
	}
}

// TestPublicAPISchedulers exercises every public constructor through the
// facade, verifying the worker-handle contract end to end.
func TestPublicAPISchedulers(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Scheduler[int]
	}{
		{"NewStealingMQ", func() Scheduler[int] { return NewStealingMQ[int](SMQConfig{Workers: 2}) }},
		{"NewStealingMQSkipList", func() Scheduler[int] { return NewStealingMQSkipList[int](SMQConfig{Workers: 2}) }},
		{"NewMultiQueue", func() Scheduler[int] {
			return NewMultiQueue[int](MQConfig{Workers: 2, Insert: InsertBatch, Delete: DeleteBatch})
		}},
		{"NewKLSM", func() Scheduler[int] { return NewKLSM[int](KLSMConfig{Workers: 2}) }},
		{"NewKLSM/strict", func() Scheduler[int] { return NewKLSM[int](KLSMConfig{Workers: 2, Relaxation: KLSMStrict}) }},
		{"NewCBPQ", func() Scheduler[int] { return NewCBPQ[int](CBPQConfig{Workers: 2}) }},
		{"NewOBIM", func() Scheduler[int] { return NewOBIM[int](OBIMConfig{Workers: 2}) }},
	} {
		name, s := tc.name, tc.mk()
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
				var b sched.Backoff
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
