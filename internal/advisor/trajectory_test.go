package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

var updateTrajectory = flag.Bool("update-trajectory", false,
	"rewrite testdata/search_deep_trajectory.jsonl from this build's bounded search")

// deepTrajectory is everything a caller can observe of one bounded search
// apart from wall time: the result and the ordered progress stream.
type deepTrajectory struct {
	Name     string
	Result   SearchResult
	Progress []searchProgress
}

// deepShapes are the six request shapes of the benchmark's search_deep
// workload (cloud machine, c=16, 256 MiB, top 5).
var deepShapes = []struct {
	name  string
	depth int
	coll  Collective
	sim   bool
	// The tallies of commit 3b85fa6, spelled out so that a change of the
	// search order shows in the diff and not only in the golden file.
	mode                             string
	nodes, evaluated, covered, prune int64
}{
	{"d8-alltoall", 8, Alltoall, false, ModeBnB, 1451, 91, 40320, 0},
	{"d10-alltoall", 10, Alltoall, false, ModeBnB, 4349, 246, 3628800, 0},
	{"d12-alltoall", 12, Alltoall, false, ModeBnB, 10375, 550, 479001600, 0},
	{"d12-allreduce", 12, Allreduce, false, ModeBnB, 10375, 5720, 479001600, 0},
	{"d10-alltoall-sim", 10, Alltoall, true, ModeBeam, 401253, 75, 32, 0},
	{"d12-alltoall-sim", 12, Alltoall, true, ModeBeam, 401905, 5, 32, 0},
}

// TestSearchDeepTrajectoryPinned holds the bounded search to the exact
// trajectory recorded at commit 3b85fa6 (before the engine was made
// incremental): the same nodes visited, memo misses, accounting, gap,
// best five, worst, and the same progress events in the same order. The
// engine may get faster; it may not search differently.
func TestSearchDeepTrajectoryPinned(t *testing.T) {
	const golden = "testdata/search_deep_trajectory.jsonl"
	var got []deepTrajectory
	for _, s := range deepShapes {
		spec := cluster.Cloud(s.depth)
		sc := Scenario{Spec: spec, Hierarchy: spec.Hierarchy(), Coll: s.coll, CommSize: 16,
			Simultaneous: s.sim, Bytes: 256 << 20}
		res, progress := recordSearch(t, sc, 5, nodeBudget, beamWidth, progressEvery)
		if res.Mode != s.mode || res.Nodes != s.nodes || res.Evaluated != s.evaluated ||
			res.Covered != s.covered || res.Pruned != s.prune {
			t.Errorf("%s: mode/nodes/evaluated/covered/pruned = %s/%d/%d/%d/%d, want %s/%d/%d/%d/%d", s.name,
				res.Mode, res.Nodes, res.Evaluated, res.Covered, res.Pruned,
				s.mode, s.nodes, s.evaluated, s.covered, s.prune)
		}
		got = append(got, deepTrajectory{Name: s.name, Result: *res, Progress: progress})
	}
	if *updateTrajectory {
		// One shape per line keeps the file small and its diffs per shape.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, tr := range got {
			if err := enc.Encode(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []deepTrajectory
	for dec := json.NewDecoder(f); dec.More(); {
		var tr deepTrajectory
		if err := dec.Decode(&tr); err != nil {
			t.Fatal(err)
		}
		want = append(want, tr)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d shapes, want %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Errorf("%s: result differs from the recorded one:\n got %+v\nwant %+v", g.Name, g.Result, w.Result)
		}
		if len(g.Progress) != len(w.Progress) {
			t.Errorf("%s: %d progress events, recorded %d", g.Name, len(g.Progress), len(w.Progress))
			continue
		}
		for j := range g.Progress {
			if g.Progress[j] != w.Progress[j] {
				t.Errorf("%s: progress event %d = %+v, recorded %+v", g.Name, j, g.Progress[j], w.Progress[j])
				break
			}
		}
	}
}

// BenchmarkSearchDeep times one bounded search per deepShapes entry, the
// request shapes of the search_deep workload.
func BenchmarkSearchDeep(b *testing.B) {
	for _, s := range deepShapes {
		spec := cluster.Cloud(s.depth)
		sc := Scenario{Spec: spec, Hierarchy: spec.Hierarchy(), Coll: s.coll, CommSize: 16,
			Simultaneous: s.sim, Bytes: 256 << 20}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
