package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that satisfy an interface of the
// standard library (error, fmt.Stringer, json.Marshaler, http.Handler,
// sort.Interface, heap.Interface, io.Writer, flag.Value, …). Such a method
// is called through the interface, so no file names it.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteString": true, "WriteTo": true, "ReadFrom": true,
	"Set": true, "Get": true,
}

// reachAllowlist names the exported production functions that only a test
// calls, each with the test that needs it. An entry leaves the list when
// the decision it waits on is taken.
var reachAllowlist = map[string]string{
	// Stays until the crossing-cost model settles on hop-count or spec weights.
	"procmap.SpecWeights": "internal/procmap/procmap_test.go",
	// Lint the gate's /metrics exposition.
	"obs.LintPrometheus": "internal/fleet/router_test.go",
	"obs.MissingHelp":    "internal/fleet/router_test.go",
}

// TestProductionCodeIsReached fails on any exported top-level function or
// method in a non-test file under cmd/ or internal/ whose name no non-test
// file of the repository (benchmark/ and examples/ included) references
// outside the declaration itself: code that only a test reaches belongs
// in the test. Names are matched, not resolved, so a name shared with a
// reached function counts as reached.
func TestProductionCodeIsReached(t *testing.T) {
	type decl struct{ pkg, name, pos string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip hidden directories, test data and the benchmark's build output.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("benchmark", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		production := strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "internal/")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !production || !fd.Name.IsExported() || (fd.Recv != nil && interfaceMethods[fd.Name.Name]) {
				continue
			}
			decls = append(decls, decl{filepath.Base(filepath.Dir(path)), fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, d := range decls {
		if refs[d.name] {
			continue
		}
		if _, ok := reachAllowlist[d.pkg+"."+d.name]; ok {
			continue
		}
		unreached = append(unreached, d.pos+": "+d.pkg+"."+d.name)
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported functions are reached only by tests: move each into its package's _test.go, delete it, or allowlist it with the test that needs it:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}
