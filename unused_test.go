package smq

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testSupport lists the declarations that stay in non-test code although
// only tests use them, each with its reason: a _test.go file cannot be
// imported by another package.
var testSupport = map[string]string{
	"repro/internal/core.NewBenchQueue":     "the root BenchmarkAblation_StealBuffer builds its queue with it",
	"repro/internal/core.BenchQueue.Refill": "the root BenchmarkAblation_StealBuffer refills the owner's heap with it",
	"repro/internal/core.BenchQueue.Steal":  "the root BenchmarkAblation_StealBuffer claims the published batch with it",
	"repro/internal/benchutil.Throughput":   "six scheduler packages' throughput benchmarks share it",
	"repro/internal/geom.BruteKNN":          "algos' k-NN tests check the parallel k-NN graph against it",
}

// TestEveryDeclarationIsUsed fails on a declaration of the module (a
// function, method, type, package-level var or const, or struct field)
// that no non-test file of the module or of the bench module uses,
// unless testSupport lists it; and on a testSupport entry that is used
// or gone. The root package's exports are TestExportsFollowTheRule's.
func TestEveryDeclarationIsUsed(t *testing.T) {
	unused, err := unusedDecls(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if _, ok := testSupport[name]; !ok {
			t.Errorf("%s: no non-test code uses it", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(testSupport)) {
		if !slices.Contains(unused, name) {
			t.Errorf("%s is listed as test support, but non-test code uses it or it is gone", name)
		}
	}
}

// TestUnusedDeclsFixture runs the scan over testdata/unused, a module
// whose unused declarations are known, so a scan that checks nothing
// cannot pass.
func TestUnusedDeclsFixture(t *testing.T) {
	unused, err := unusedDecls("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture/lib.Point.Z",
		"fixture/lib.Unused",
	}
	if !slices.Equal(unused, want) {
		t.Fatalf("unused = %q, want %q", unused, want)
	}
}

// unusedDecls type-checks the non-test Go files that go/build selects
// for this platform in the module at root and in each module of users
// (which may import it), and returns, sorted, the declarations of the
// root module that none of those files uses. A name reads
// "importpath.Name", "importpath.Type.Method" or "importpath.Type.Field".
//
// A use inside a declaration's own body (recursion, a type's reference
// to itself) or in a method's receiver does not count. A method is also
// used when its type implements an interface that non-test code uses
// and that declares the method. Not checked: exported names of the root
// package, embedded fields, interface methods and declarations inside
// functions.
func unusedDecls(root string, users ...string) ([]string, error) {
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*typedPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	mod, err := l.addModule(root)
	if err != nil {
		return nil, err
	}
	for _, u := range users {
		if _, err := l.addModule(u); err != nil {
			return nil, err
		}
	}
	var all []*typedPkg
	for _, p := range slices.Sorted(maps.Keys(l.dirs)) {
		tp, err := l.load(p)
		if err != nil {
			return nil, err
		}
		all = append(all, tp)
	}

	// decls: every checked declaration of the root module and its name.
	decls := map[types.Object]string{}
	for _, tp := range all {
		pkg := tp.pkg.Path()
		if pkg != mod && !strings.HasPrefix(pkg, mod+"/") {
			continue
		}
		checked := func(id *ast.Ident) bool {
			return id.Name != "_" && !(pkg == mod && id.IsExported())
		}
		for _, f := range tp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && tp.pkg.Name() == "main") {
						continue
					}
					if !checked(d.Name) {
						continue
					}
					fn := tp.info.Defs[d.Name].(*types.Func)
					name := d.Name.Name
					if recv := fn.Signature().Recv(); recv != nil {
						t := recv.Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						name = t.(*types.Named).Obj().Name() + "." + name
					}
					decls[fn] = pkg + "." + name
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if checked(s.Name) {
								decls[tp.info.Defs[s.Name]] = pkg + "." + s.Name.Name
							}
							ast.Inspect(s.Type, func(n ast.Node) bool {
								if st, ok := n.(*ast.StructType); ok {
									for _, fld := range st.Fields.List {
										for _, id := range fld.Names {
											if checked(id) {
												decls[tp.info.Defs[id]] = pkg + "." + s.Name.Name + "." + id.Name
											}
										}
									}
								}
								return true
							})
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if checked(id) {
									decls[tp.info.Defs[id]] = pkg + "." + id.Name
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	use := func(obj types.Object) { used[origin(obj)] = true }
	var ifaces []*types.Interface
	var named []*types.Named
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if t.Obj().Pkg() != nil {
				named = append(named, t)
			}
			for i := range t.TypeArgs().Len() {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
			for i := range t.NumMethods() {
				walk(t.Method(i).Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := range t.NumFields() {
				walk(t.Field(i).Type())
			}
		case *types.Tuple:
			for i := range t.Len() {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		}
	}
	for _, tp := range all {
		for _, tv := range tp.info.Types {
			walk(tv.Type)
		}
		for _, f := range tp.files {
			for _, d := range f.Decls {
				uses(tp.info, d, use)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if it.NumMethods() > ms.Len() || !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					use(sel.Obj())
				}
			}
		}
	}

	var unused []string
	for obj, name := range decls {
		if !used[obj] {
			unused = append(unused, name)
		}
	}
	slices.Sort(unused)
	return unused, nil
}

// uses calls use for every object that declaration d refers to, except
// the objects d itself declares and its receiver's type.
func uses(info *types.Info, d ast.Decl, use func(types.Object)) {
	self := map[types.Object]bool{}
	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && !self[origin(obj)] {
					use(obj)
				}
			case *ast.CompositeLit:
				// An unkeyed struct literal names no field but sets all.
				if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range st.NumFields() {
							use(st.Field(i))
						}
					}
				}
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if obj := info.Defs[d.Name]; obj != nil {
			self[obj] = true
		}
		visit(d.Type)
		if d.Body != nil {
			visit(d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			clear(self)
			switch s := s.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					self[info.Defs[id]] = true
				}
			}
			visit(s)
		}
	}
}

// origin is the generic declaration of an instantiated function, method
// or field, and obj itself otherwise.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loader type-checks the packages of a set of modules from source, and
// the standard library through the source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*typedPkg
}

type typedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// addModule registers every package directory of the module at dir,
// skipping testdata, hidden directories and nested modules, and returns
// the module path.
func (l *loader) addModule(dir string) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	var mod string
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
		}
	}
	if mod == "" {
		return "", fmt.Errorf("%s/go.mod declares no module", dir)
	}
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		if len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(dir, p)
			l.dirs[path.Join(mod, filepath.ToSlash(rel))] = p
		}
		return nil
	})
	return mod, err
}

// Import resolves a registered package from source and anything else
// through the standard library importer.
func (l *loader) Import(p string) (*types.Package, error) {
	if _, ok := l.dirs[p]; !ok {
		return l.std.Import(p)
	}
	tp, err := l.load(p)
	if err != nil {
		return nil, err
	}
	return tp.pkg, nil
}

// load type-checks the non-test files of registered package p once.
func (l *loader) load(p string) (*typedPkg, error) {
	if tp, ok := l.pkgs[p]; ok {
		return tp, nil
	}
	bp, err := build.ImportDir(l.dirs[p], 0)
	if err != nil {
		return nil, err
	}
	tp := &typedPkg{info: &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		tp.files = append(tp.files, f)
	}
	conf := types.Config{Importer: l}
	if tp.pkg, err = conf.Check(p, l.fset, tp.files, tp.info); err != nil {
		return nil, err
	}
	l.pkgs[p] = tp
	return tp, nil
}
