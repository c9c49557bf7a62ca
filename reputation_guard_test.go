package sqlb_test

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

// TestReputationWrittenThroughPopulation holds the module to what the
// mediator's consumer-intention rows rely on: a provider's reputation
// changes only through model.Population.SetReputation or RecordFeedback,
// which move the population's reputation version. Provider.Reputation stays
// an exported field for readers outside the module, so the compiler cannot
// refuse a direct write; this test does, in every Go file of the module
// outside internal/model (a nested module, such as benchmark/, is not
// this one). It fails on an assignment to, an increment or decrement of,
// or the address of any selector named Reputation. A keyed composite
// literal (Provider{Reputation: r}) builds a provider no row has read yet,
// and is allowed.
func TestReputationWrittenThroughPopulation(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "model") || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var written []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				written = n.Lhs
			case *ast.IncDecStmt:
				written = []ast.Expr{n.X}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					written = []ast.Expr{n.X}
				}
			}
			for _, x := range written {
				if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok && sel.Sel.Name == "Reputation" {
					t.Errorf("%s: Reputation written directly; use Population.SetReputation or RecordFeedback", fset.Position(sel.Pos()))
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
