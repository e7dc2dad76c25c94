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
)

// metricsFile is the committed ledger of every metric series: one
// "<name> <reader>" line per series, the reader being a file that reads
// the series' value.
const metricsFile = "testdata/metrics.txt"

// seriesMakers are the obs.Registry methods that create a series; the
// series name is their first argument.
var seriesMakers = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// TestMetricLedger fails when the metric series the program registers
// differ from testdata/metrics.txt, so adding or removing a series is a
// reviewed edit of that file, and when a series' reader does not read it.
// A series is the string literal passed to .Counter, .Gauge or .Histogram
// in a non-test file under cmd/ or internal/. Its reader must be a file of
// the repository other than a .md file and the files that produce the
// series, and must name the series, or its _sum, _count or _bucket form:
// a benchmark scrape, a Makefile drill, a consumer under cmd/ or
// internal/, or a test that checks serving behaviour through the value.
func TestMetricLedger(t *testing.T) {
	producers := map[string]map[string]bool{} // series → files that register it
	fset := token.NewFileSet()
	parseProgram(t, fset, func(path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !seriesMakers[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			name, err := strconv.Unquote(litValue(lit, ok))
			if err != nil {
				t.Errorf("%s: series name is not a string literal", fset.Position(call.Pos()))
				return true
			}
			if producers[name] == nil {
				producers[name] = map[string]bool{}
			}
			producers[name][path] = true
			return true
		})
	})

	readers := map[string]string{} // series → reader file
	file, err := os.Open(metricsFile)
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
		if len(fields) != 2 {
			t.Errorf("%s: %q is not \"<series> <reader>\"", metricsFile, line)
			continue
		}
		if _, dup := readers[fields[0]]; dup {
			t.Errorf("%s: %s is listed twice", metricsFile, fields[0])
		}
		readers[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	added, removed := ledgerDiff(producers, readers)
	if len(added) > 0 {
		t.Errorf("%d series in the code are missing from %s; add each with its reader, or delete the series:\n%s",
			len(added), metricsFile, strings.Join(added, "\n"))
	}
	if len(removed) > 0 {
		t.Errorf("%d series in %s no longer exist; delete them:\n%s", len(removed), metricsFile, strings.Join(removed, "\n"))
	}

	for name, reader := range readers {
		if producers[name] == nil {
			continue
		}
		switch {
		case strings.HasSuffix(reader, ".md"):
			t.Errorf("%s: reader %s of %s is documentation, not a reader", metricsFile, reader, name)
			continue
		case producers[name][reader]:
			t.Errorf("%s: reader %s of %s is a file that produces it", metricsFile, reader, name)
			continue
		}
		b, err := os.ReadFile(reader)
		if err != nil {
			t.Errorf("%s: reader of %s: %v", metricsFile, name, err)
			continue
		}
		if !regexp.MustCompile(`\b` + name + `(_sum|_count|_bucket)?\b`).Match(b) {
			t.Errorf("%s: reader %s does not name %s", metricsFile, reader, name)
		}
	}
}
