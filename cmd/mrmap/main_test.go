package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Hierarchies a user can type must never reach a panic: an arity product
// past the int range, or a depth whose k! orders cannot be enumerated,
// prints one "mrmap: …" line and exits 1, as the service answers 400. The
// rows run the built command, because a panic would take the test binary
// down with it.
func TestHostileHierarchiesExitCleanly(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mrmap")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const (
		huge = "4294967296,4294967296,4"
		deep = "2,2,2,2,2,2,2,2,2,2,2,2,2,2"
	)
	for _, args := range []string{
		"decompose -h " + huge + " -rank 1",
		"reorder -h " + huge + " -order 0-1-2",
		"reorder -h " + huge + " -order 0-1-2 -rankfile",
		"mapcpu -h " + huge + " -order 0-1-2 -n 4",
		"orders -h " + huge,
		"procsets -h " + huge,
		"slurm -h " + huge + " -order 0-1-2",
		"orders -h " + deep,
		"orders -h " + deep + " -json",
	} {
		t.Run(args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, strings.Fields(args)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("exit = %v, want status 1", err)
			}
			msg := stderr.String()
			if strings.Contains(msg, "goroutine") {
				t.Fatalf("stack trace on stderr:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "mrmap: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr = %q, want one \"mrmap: …\" line", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q before the refusal, want nothing", stdout.String())
			}
		})
	}
}
