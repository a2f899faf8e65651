package archive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryIndexIsRead holds the archive's indexes to the queries that
// read them. It parses every non-test relstore.Query literal in the module
// that has Conds and fails on an index of Schemas() no such query filters
// on (an index costs a posting on every insert), and on a query whose
// Conds no index covers, column for column in order (relstore then scans
// every row of the table, silently).
func TestEveryIndexIsRead(t *testing.T) {
	tables := map[string]string{
		"TWorkflow": TWorkflow, "TWorkflowState": TWorkflowState, "TTask": TTask, "TTaskEdge": TTaskEdge,
		"TJob": TJob, "TJobEdge": TJobEdge, "TJobInstance": TJobInstance, "TJobState": TJobState,
		"TInvocation": TInvocation, "THost": THost,
	}
	read := map[string][]string{} // "table(col,col)" -> where a query filters on it
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != filepath.Join("..", "..") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !isSel(lit.Type, "relstore", "Query") {
				return true
			}
			var tableExpr ast.Expr
			var cols []string
			for _, el := range lit.Elts {
				kv := el.(*ast.KeyValueExpr)
				switch kv.Key.(*ast.Ident).Name {
				case "Table":
					tableExpr = kv.Value
				case "Conds":
					for _, c := range kv.Value.(*ast.CompositeLit).Elts {
						call, ok := c.(*ast.CallExpr)
						if !ok || !isSel(call.Fun, "relstore", "Eq") {
							t.Errorf("%s: a Cond that is not relstore.Eq(\"column\", value)", fset.Position(c.Pos()))
							continue
						}
						col, err := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
						if err != nil {
							t.Errorf("%s: %v", fset.Position(c.Pos()), err)
						}
						cols = append(cols, col)
					}
				}
			}
			if len(cols) > 0 {
				name := ""
				switch x := tableExpr.(type) {
				case *ast.Ident:
					name = x.Name
				case *ast.SelectorExpr:
					name = x.Sel.Name
				}
				table, ok := tables[name]
				if !ok {
					t.Errorf("%s: a filtered Query's Table %q is not an archive table constant", fset.Position(lit.Pos()), name)
				}
				key := table + "(" + strings.Join(cols, ",") + ")"
				read[key] = append(read[key], fset.Position(lit.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(read) == 0 {
		t.Fatal("found no relstore.Query with Conds in the module")
	}
	declared := map[string]bool{}
	for _, ts := range Schemas() {
		for _, ix := range ts.Indexes {
			key := ts.Name + "(" + strings.Join(ix, ",") + ")"
			declared[key] = true
			if len(read[key]) == 0 {
				t.Errorf("index %s is read by no query: delete it", key)
			}
		}
	}
	for key, at := range read {
		if !declared[key] {
			t.Errorf("%s filters %s, which no index covers: every call scans the table", strings.Join(at, ", "), key)
		}
	}
}

// isSel reports whether e is pkg.name.
func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
