package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testCommand is one `go test` line of CI or the Makefile: the names its
// -run and -fuzz patterns select and the package paths it runs them in.
type testCommand struct {
	file, line string
	names      []string
	pkgs       []string
}

var (
	goTest      = regexp.MustCompile(`(^|\s)(go|\$\(GO\)) test\s`)
	testPattern = regexp.MustCompile(`\s-(?:run|fuzz)[ =](?:'([^']*)'|(\S+))`)
	testPkgPath = regexp.MustCompile(`\s(\./\S*)`)
)

// goTestCommands returns the `go test` commands of a Makefile or workflow
// that select tests by name. Backslash-continued lines are joined first.
func goTestCommands(t *testing.T, file string) []testCommand {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []testCommand
	for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n") {
		if !goTest.MatchString(line) {
			continue
		}
		cmd := testCommand{file: file, line: strings.TrimSpace(line)}
		for _, m := range testPattern.FindAllStringSubmatch(line, -1) {
			for _, name := range strings.Split(m[1]+m[2], "|") {
				if name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$"); name != "" {
					cmd.names = append(cmd.names, name)
				}
			}
		}
		for _, m := range testPkgPath.FindAllStringSubmatch(line, -1) {
			cmd.pkgs = append(cmd.pkgs, m[1])
		}
		if len(cmd.names) == 0 {
			continue
		}
		if len(cmd.pkgs) == 0 {
			cmd.pkgs = []string{"."}
		}
		out = append(out, cmd)
	}
	return out
}

// declaredTests returns the Test, Fuzz and Benchmark functions the
// _test.go files under a package path declare; "./x/..." covers x and
// every directory below it.
func declaredTests(t *testing.T, fset *token.FileSet, pkg string) map[string]bool {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	names := map[string]bool{}
	err := filepath.WalkDir(filepath.Clean(dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Clean(dir) && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

var plainTestName = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Za-z0-9_]*$`)

// A `go test -run 'A|B'` passes without a word when B has been renamed or
// deleted. Every name that CI and the Makefile select by -run or -fuzz
// must be a test, fuzz target or benchmark that a _test.go file under
// that command's package paths declares.
func TestCINamesExist(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		cmds := goTestCommands(t, file)
		if len(cmds) == 0 {
			t.Errorf("%s: no `go test -run/-fuzz` command found", file)
		}
		for _, cmd := range cmds {
			declared := map[string]bool{}
			for _, pkg := range cmd.pkgs {
				for name := range declaredTests(t, fset, pkg) {
					declared[name] = true
				}
			}
			for _, name := range cmd.names {
				if !plainTestName.MatchString(name) {
					t.Errorf("%s: %q is not a plain test name in: %s", cmd.file, name, cmd.line)
				} else if !declared[name] {
					t.Errorf("%s: %s is declared by no _test.go under %v: %s", cmd.file, name, cmd.pkgs, cmd.line)
				}
			}
		}
	}
}
