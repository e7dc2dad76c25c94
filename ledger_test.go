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

// parseProgram parses every non-test Go file under cmd/ and internal/,
// test data skipped, and hands each to fn with its slash-separated path:
// the program the knob, metric and route ledgers are checked against.
func parseProgram(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
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
			fn(filepath.ToSlash(path), f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// ledgerDiff returns, sorted, the keys the code has and the ledger lacks
// (added) and the keys the ledger lists and the code lacks (removed).
func ledgerDiff[C, L any](code map[string]C, ledger map[string]L) (added, removed []string) {
	for k := range code {
		if _, ok := ledger[k]; !ok {
			added = append(added, k)
		}
	}
	for k := range ledger {
		if _, ok := code[k]; !ok {
			removed = append(removed, k)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}
