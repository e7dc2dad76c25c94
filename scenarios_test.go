package repro

import (
	"bufio"
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
)

// scenariosFile is the committed ledger of the fault-plan kinds: one
// "<kind> <reader>" line per file that reads a kind.
const scenariosFile = "testdata/scenarios.txt"

// TestScenarioLedger fails when the fault-plan kinds that fault.Parse
// accepts differ from those testdata/scenarios.txt lists, so adding or
// removing a kind is a reviewed edit of that file, and when a listed
// reader does not name its kind. A kind is the value of a Kind constant in
// a non-test file of internal/fault; Parse accepts it when it does not
// reject "<kind>:1" as an unknown kind. A reader must be a file outside
// internal/fault, not a .md file, that names the kind.
func TestScenarioLedger(t *testing.T) {
	parsed := map[string]bool{}
	fset := token.NewFileSet()
	parseProgram(t, fset, func(path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/fault/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			if id, ok := spec.Type.(*ast.Ident); !ok || id.Name != "Kind" {
				return true
			}
			for _, v := range spec.Values {
				lit, ok := v.(*ast.BasicLit)
				kind, err := strconv.Unquote(litValue(lit, ok))
				if err != nil {
					t.Errorf("%s: Kind value is not a string literal", fset.Position(v.Pos()))
					continue
				}
				if _, err := fault.Parse(kind + ":1"); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
					parsed[kind] = true
				}
			}
			return true
		})
	})

	readers := map[string][]string{} // kind → reader files
	file, err := os.Open(scenariosFile)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("%s: %q is not \"<kind> <reader>\"", scenariosFile, line)
			continue
		}
		if seen[line] {
			t.Errorf("%s: %q is listed twice", scenariosFile, line)
		}
		seen[line] = true
		readers[fields[0]] = append(readers[fields[0]], fields[1])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	added, removed := ledgerDiff(parsed, readers)
	if len(added) > 0 {
		t.Errorf("%d fault-plan kinds the parser accepts are missing from %s; add each with its readers, or delete the kind:\n%s",
			len(added), scenariosFile, strings.Join(added, "\n"))
	}
	if len(removed) > 0 {
		t.Errorf("%d kinds in %s are no longer parsed; delete them:\n%s", len(removed), scenariosFile, strings.Join(removed, "\n"))
	}

	for kind, files := range readers {
		if !parsed[kind] {
			continue
		}
		named := regexp.MustCompile(`(^|[^\w-])` + regexp.QuoteMeta(kind) + `([^\w-]|$)`)
		for _, reader := range files {
			switch {
			case strings.HasSuffix(reader, ".md"):
				t.Errorf("%s: reader %s of %s is documentation, not a reader", scenariosFile, reader, kind)
				continue
			case strings.HasPrefix(reader, "internal/fault/"):
				t.Errorf("%s: reader %s of %s is in the package that parses it", scenariosFile, reader, kind)
				continue
			}
			b, err := os.ReadFile(reader)
			if err != nil {
				t.Errorf("%s: reader of %s: %v", scenariosFile, kind, err)
				continue
			}
			if !named.Match(b) {
				t.Errorf("%s: reader %s does not name %s", scenariosFile, reader, kind)
			}
		}
	}
}
