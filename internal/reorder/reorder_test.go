package reorder

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perm"
	"repro/internal/topology"
)

func TestNewRankMatchesTable1(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	ro, err := New(h, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ro.NewRank(10); got != 9 {
		t.Errorf("NewRank(10) = %d, want 9", got)
	}
	if got := ro.SplitKey(10); got != 9 {
		t.Errorf("SplitKey(10) = %d, want 9", got)
	}
	if got := ro.OldRank(9); got != 10 {
		t.Errorf("OldRank(9) = %d, want 10", got)
	}
}

func TestBindingIsInverse(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	for _, sigma := range perm.All(3) {
		ro, err := New(h, sigma)
		if err != nil {
			t.Fatal(err)
		}
		b := ro.Binding()
		for newRank, core := range b {
			if ro.NewRank(core) != newRank {
				t.Errorf("sigma=%v: binding[%d]=%d but NewRank(%d)=%d",
					sigma, newRank, core, core, ro.NewRank(core))
			}
		}
	}
}

func TestOrderErrors(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	if _, err := New(h, []int{0, 0, 1}); err == nil {
		t.Error("invalid order accepted")
	}
	if _, err := New(h, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
}

func TestRankfileRoundTrip(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	ro, err := New(h, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ro.Rankfile(&buf); err != nil {
		t.Fatal(err)
	}
	binding, err := ParseRankfile(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := ro.Binding()
	for i := range want {
		if binding[i] != want[i] {
			t.Errorf("binding[%d] = %d, want %d", i, binding[i], want[i])
		}
	}
}

func TestRankfileFormat(t *testing.T) {
	h := topology.MustNew(2, 2, 4)
	ro, err := New(h, []int{2, 1, 0}) // identity enumeration
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ro.Rankfile(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 16 {
		t.Fatalf("%d rankfile lines", len(lines))
	}
	if lines[0] != "rank 0=node0 slot=0" {
		t.Errorf("line 0 = %q", lines[0])
	}
	if lines[9] != "rank 9=node1 slot=1" {
		t.Errorf("line 9 = %q", lines[9])
	}
}

// rankfileFprintf is the reference rankfile writer, one fmt.Fprintf per
// line: Rankfile must produce the same bytes.
func rankfileFprintf(ro *Reordering, w io.Writer) error {
	coresPerNode := 1
	for _, a := range ro.h.Arities()[1:] {
		coresPerNode *= a
	}
	for newRank := 0; newRank < ro.Size(); newRank++ {
		core := ro.inverse[newRank]
		if _, err := fmt.Fprintf(w, "rank %d=node%d slot=%d\n", newRank, core/coresPerNode, core%coresPerNode); err != nil {
			return err
		}
	}
	return nil
}

// TestRankfileMatchesFprintf: on every order of ⟦2,2,4⟧, Hydra-16 and
// LUMI-16 — whose rankfiles pass the 32 KB chunk boundary — Rankfile
// writes the reference bytes; those of the two smaller machines, where
// parsing every order stays cheap under the race detector, parse back to
// Binding.
func TestRankfileMatchesFprintf(t *testing.T) {
	for _, h := range []topology.Hierarchy{topology.MustNew(2, 2, 4), cluster.HydraHierarchy(16), cluster.LUMIHierarchy(16)} {
		longest := 0
		perm.Visit(h.Depth(), func(sigma []int) bool {
			ro, err := New(h, sigma)
			if err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := ro.Rankfile(&got); err != nil {
				t.Fatal(err)
			}
			if err := rankfileFprintf(ro, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s σ=%v: Rankfile differs from the Fprintf reference", h, sigma)
			}
			longest = max(longest, got.Len())
			if h.Size() > 512 {
				return true
			}
			binding, err := ParseRankfile(&got, h.Size()/h.Level(0).Arity)
			if err != nil || !slices.Equal(binding, ro.Binding()) {
				t.Fatalf("%s σ=%v: rankfile parses to %v, %v; want Binding", h, sigma, binding, err)
			}
			return true
		})
		if h.Size() == 2048 && longest <= rankfileChunk {
			t.Fatalf("%s: rankfile of %d bytes fits one chunk", h, longest)
		}
	}
}

// failSecond accepts its first write and refuses every later one.
type failSecond struct{ writes int }

var errRefused = errors.New("write refused")

func (w *failSecond) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errRefused
	}
	return len(p), nil
}

func TestRankfileReturnsWriteError(t *testing.T) {
	ro, err := New(cluster.LUMIHierarchy(16), []int{3, 2, 1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	w := &failSecond{}
	if err := ro.Rankfile(w); !errors.Is(err, errRefused) || w.writes != 2 {
		t.Fatalf("Rankfile = %v after %d writes, want the second write's error", err, w.writes)
	}
}

func TestParseRankfileErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "hello world\n"},
		{"duplicate", "rank 0=node0 slot=0\nrank 0=node0 slot=1\n"},
		{"missing", "rank 1=node0 slot=1\n"},
		{"slot range", "rank 0=node0 slot=99\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := ParseRankfile(strings.NewReader(c.in), 8); err == nil {
			t.Errorf("%s: ParseRankfile should fail", c.name)
		}
	}
	if _, err := ParseRankfile(strings.NewReader("rank 0=node0 slot=0\n"), 0); err == nil {
		t.Error("zero coresPerNode accepted")
	}
}

func TestParseRankfileComments(t *testing.T) {
	in := "# a comment\n\nrank 0=node0 slot=3\nrank 1=node1 slot=0\n"
	b, err := ParseRankfile(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 3 || b[1] != 8 {
		t.Errorf("binding = %v", b)
	}
}

// ParseRankfile reads a rankfile in the format emitted by Rankfile and
// returns the rank→core binding for a machine with coresPerNode cores per
// node.
func ParseRankfile(r io.Reader, coresPerNode int) ([]int, error) {
	if coresPerNode <= 0 {
		return nil, fmt.Errorf("reorder: non-positive cores per node")
	}
	type entry struct{ rank, core int }
	var entries []entry
	maxRank := -1
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var rank, node, slot int
		if _, err := fmt.Sscanf(line, "rank %d=node%d slot=%d", &rank, &node, &slot); err != nil {
			return nil, fmt.Errorf("reorder: rankfile line %d %q: %w", lineNo, line, err)
		}
		if rank < 0 || node < 0 || slot < 0 || slot >= coresPerNode {
			return nil, fmt.Errorf("reorder: rankfile line %d out of range", lineNo)
		}
		entries = append(entries, entry{rank: rank, core: node*coresPerNode + slot})
		if rank > maxRank {
			maxRank = rank
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("reorder: empty rankfile")
	}
	binding := make([]int, maxRank+1)
	seen := make([]bool, maxRank+1)
	for _, e := range entries {
		if e.rank > maxRank {
			continue
		}
		if seen[e.rank] {
			return nil, fmt.Errorf("reorder: duplicate rank %d in rankfile", e.rank)
		}
		seen[e.rank] = true
		binding[e.rank] = e.core
	}
	for rank, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("reorder: rank %d missing from rankfile", rank)
		}
	}
	return binding, nil
}
