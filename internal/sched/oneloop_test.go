package sched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneWorkerLoop is the invariant behind Stream's "the only one": no
// non-test file of the module outside this package declares a
// sched.Backoff or asks Pending whether the run is over — Quiesced(), or
// Done() used as a value (a WaitGroup's Done is a statement) — so nobody
// can hand-write another pop→quiesce→backoff loop. The public alias
// `type Backoff = sched.Backoff` in smq.go is the one allowed mention.
func TestOneWorkerLoop(t *testing.T) {
	const root = "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if rel == "internal/sched" || rel != "." && (strings.HasPrefix(d.Name(), ".") || nested == nil) {
				return filepath.SkipDir // this package, .git, build output, the bench module
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		statement, alias := map[*ast.CallExpr]bool{}, map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					statement[call] = true
				}
			case *ast.DeferStmt:
				statement[n.Call] = true
			case *ast.TypeSpec:
				alias[n.Type] = rel == "smq.go" && n.Assign.IsValid()
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sched" && n.Sel.Name == "Backoff" && !alias[n] {
					t.Errorf("%s: sched.Backoff outside internal/sched", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) == 0 &&
					(sel.Sel.Name == "Quiesced" || sel.Sel.Name == "Done" && !statement[n]) {
					t.Errorf("%s: termination test .%s() outside internal/sched", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
