package repro

import (
	"bufio"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// routesFile is the committed ledger of every HTTP route: one
// "<package> <route> <reader>" line per route a package serves, the reader
// being a file that calls the route.
const routesFile = "testdata/routes.txt"

// pprofRoute is the net/http/pprof surface: its handlers are one route.
const pprofRoute = "/debug/pprof/"

// TestRouteLedger fails when the HTTP routes the program serves differ
// from testdata/routes.txt, so adding or removing a route is a reviewed
// edit of that file, and when a route's reader does not call it. A route
// is the string literal a non-test file under cmd/ or internal/ passes to
// HandleFunc or Handle of http's default mux or of a mux from
// http.NewServeMux, or a Path of mapd's endpoint table; the range over
// that table (e.Path, ep.Path) is the one non-literal registration. The
// reader must be a non-test file of the repository outside the serving
// package, not a .md file, that names the route: a benchmark client, a
// consumer under cmd/ or internal/, or a Makefile drill that asserts a
// value the route answers.
func TestRouteLedger(t *testing.T) {
	served := map[string]bool{} // "<package> <route>"
	fset := token.NewFileSet()
	add := func(pkg string, lit *ast.BasicLit, ok bool, pos token.Pos) {
		route, err := strconv.Unquote(litValue(lit, ok))
		if err != nil {
			t.Errorf("%s: route is not a string literal", fset.Position(pos))
			return
		}
		if strings.HasPrefix(route, pprofRoute) {
			route = pprofRoute
		}
		served[pkg+" "+route] = true
	}
	parseProgram(t, fset, func(path string, f *ast.File) {
		pkg := filepath.ToSlash(filepath.Dir(path))
		muxes := map[string]bool{"http": true}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 && isCall(n.Rhs[0], "http", "NewServeMux") {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						muxes[id.Name] = true
					}
				}
			case *ast.CompositeLit:
				// The endpoint table: []Endpoint{{"/v1/map", …}, …}.
				at, ok := n.Type.(*ast.ArrayType)
				if !ok {
					return true
				}
				if id, ok := at.Elt.(*ast.Ident); !ok || id.Name != "Endpoint" {
					return true
				}
				for _, row := range n.Elts {
					if cl, ok := row.(*ast.CompositeLit); ok && len(cl.Elts) > 0 {
						lit, ok := cl.Elts[0].(*ast.BasicLit)
						add(pkg, lit, ok, cl.Pos())
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") || len(n.Args) != 2 {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || !muxes[x.Name] {
					return true
				}
				if p, ok := n.Args[0].(*ast.SelectorExpr); ok && p.Sel.Name == "Path" {
					if x, ok := p.X.(*ast.Ident); ok && (x.Name == "e" || x.Name == "ep") {
						return true // the endpoint table, collected from its literal
					}
				}
				lit, ok := n.Args[0].(*ast.BasicLit)
				add(pkg, lit, ok, n.Pos())
			}
			return true
		})
	})

	readers := map[string]string{} // "<package> <route>" → reader file
	file, err := os.Open(routesFile)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Errorf("%s: %q is not \"<package> <route> <reader>\"", routesFile, line)
			continue
		}
		key := fields[0] + " " + fields[1]
		if _, dup := readers[key]; dup {
			t.Errorf("%s: %s is listed twice", routesFile, key)
		}
		readers[key] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	added, removed := ledgerDiff(served, readers)
	if len(added) > 0 {
		t.Errorf("%d routes in the code are missing from %s; add each with its reader, or delete the route:\n%s",
			len(added), routesFile, strings.Join(added, "\n"))
	}
	if len(removed) > 0 {
		t.Errorf("%d routes in %s are no longer served; delete them:\n%s", len(removed), routesFile, strings.Join(removed, "\n"))
	}

	for key, reader := range readers {
		if !served[key] {
			continue
		}
		pkg, route, _ := strings.Cut(key, " ")
		switch {
		case strings.HasSuffix(reader, ".md"):
			t.Errorf("%s: reader %s of %s is documentation, not a reader", routesFile, reader, key)
			continue
		case strings.HasSuffix(reader, "_test.go"):
			t.Errorf("%s: reader %s of %s is a test", routesFile, reader, key)
			continue
		case filepath.ToSlash(filepath.Dir(reader)) == pkg:
			t.Errorf("%s: reader %s of %s is in the package that serves it", routesFile, reader, key)
			continue
		}
		b, err := os.ReadFile(reader)
		if err != nil {
			t.Errorf("%s: reader of %s: %v", routesFile, key, err)
			continue
		}
		if !regexp.MustCompile(regexp.QuoteMeta(route) + `([^\w/]|$)`).Match(b) {
			t.Errorf("%s: reader %s does not name %s", routesFile, reader, route)
		}
	}
}

// isCall reports whether e is a call of pkg.name.
func isCall(e ast.Expr, pkg, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}
