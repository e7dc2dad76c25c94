package repro

import (
	"bufio"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// knobsFile is the committed ledger of every settable value: one line per
// command-line flag and per exported field of an options struct.
const knobsFile = "testdata/knobs.txt"

// flagDefiners are the flag package's functions (and *flag.FlagSet
// methods) that register a flag; the value of each is the index of the
// flag-name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1,
	"Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// TestKnobLedger fails when the settable values of the program differ
// from testdata/knobs.txt, so adding or removing a knob is a reviewed
// edit of that file. A knob is a flag registered by a command under cmd/
// ("flag <command> [<flag set>] -<name>"), or an exported field of an
// exported struct type under internal/ named Config or Options or ending
// in either ("field <package dir>.<type>.<field>"). Test files are not
// scanned.
func TestKnobLedger(t *testing.T) {
	got := map[string]bool{}
	fset := token.NewFileSet()
	parseProgram(t, fset, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "cmd/") {
			command := strings.SplitN(strings.TrimPrefix(dir, "cmd/"), "/", 2)[0]
			flagKnobs(t, fset, f, command, got)
		} else {
			fieldKnobs(f, strings.TrimPrefix(dir, "internal/"), got)
		}
	})

	want := map[string]bool{}
	file, err := os.Open(knobsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	added, removed := ledgerDiff(got, want)
	if len(added) > 0 {
		t.Errorf("%d knobs in the code are missing from %s; add them:\n%s", len(added), knobsFile, strings.Join(added, "\n"))
	}
	if len(removed) > 0 {
		t.Errorf("%d knobs in %s no longer exist; delete them:\n%s", len(removed), knobsFile, strings.Join(removed, "\n"))
	}
}

// flagKnobs adds the flags f registers, on the global flag set or on a
// *flag.FlagSet made by flag.NewFlagSet with a literal name.
func flagKnobs(t *testing.T, fset *token.FileSet, f *ast.File, command string, out map[string]bool) {
	sets := map[string]string{} // variable → flag set name
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if name, ok := newFlagSetName(rhs); ok && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						sets[id.Name] = name
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			arg, definer := flagDefiners[sel.Sel.Name]
			if !ok || !definer {
				return true
			}
			prefix := command
			if set, isSet := sets[recv.Name]; isSet {
				prefix += " " + set
			} else if recv.Name != "flag" {
				return true
			}
			if arg >= len(n.Args) {
				return true
			}
			lit, ok := n.Args[arg].(*ast.BasicLit)
			name, err := strconv.Unquote(litValue(lit, ok))
			if err != nil {
				t.Errorf("%s: flag name is not a string literal", fset.Position(n.Pos()))
				return true
			}
			out["flag "+prefix+" -"+name] = true
		}
		return true
	})
}

func litValue(lit *ast.BasicLit, ok bool) string {
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	return lit.Value
}

// newFlagSetName reports the literal name of a flag.NewFlagSet call.
func newFlagSetName(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewFlagSet" {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	name, err := strconv.Unquote(litValue(lit, ok))
	return name, err == nil
}

// fieldKnobs adds the exported fields of f's exported Config/Options
// struct types.
func fieldKnobs(f *ast.File, pkg string, out map[string]bool) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			for _, field := range st.Fields.List {
				names := field.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedName(field.Type)}
				}
				for _, id := range names {
					if id != nil && id.IsExported() {
						out["field "+pkg+"."+name+"."+id.Name] = true
					}
				}
			}
		}
	}
}

// embeddedName is the field name of an embedded type: T, *T, pkg.T or
// *pkg.T.
func embeddedName(e ast.Expr) *ast.Ident {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}
