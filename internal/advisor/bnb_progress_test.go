package advisor

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// recordSearch runs the bounded engine as searchBounded does, with a
// progress sink that records every event, and returns the result with
// the events.
func recordSearch(t *testing.T, sc Scenario, top int, budget int64, width int, every int64) (*SearchResult, []searchProgress) {
	t.Helper()
	e, err := newBnbEngine(context.Background(), sc, top, budget, every)
	if err != nil {
		t.Fatal(err)
	}
	var events []searchProgress
	e.progress = func(p searchProgress) { events = append(events, p) }
	res, err := e.run(width)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// collectProgress runs a bounded search within budget nodes, with a
// coverage event every 500, and returns the result with the events.
func collectProgress(t *testing.T, depth int, budget int64) (*SearchResult, []searchProgress) {
	t.Helper()
	sc := Scenario{
		Spec:      cluster.Cloud(depth),
		Hierarchy: cluster.Cloud(depth).Hierarchy(),
		Coll:      Allgather,
		CommSize:  cluster.Cloud(depth).Hierarchy().Size(),
		Bytes:     1 << 20,
	}
	return recordSearch(t, sc, 1, budget, beamWidth, 500)
}

// TestSearchProgressMonotone is the live-progress contract: incumbent
// events improve strictly monotonically within each phase, coverage
// heartbeats carry nondecreasing tallies, and the last incumbent of the
// answering phase equals the returned best time.
func TestSearchProgressMonotone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		depth  int
		budget int64
		mode   string
	}{
		{name: "bnb", depth: 7, budget: nodeBudget, mode: ModeBnB},
		{name: "beam", depth: 8, budget: 2000, mode: ModeBeam},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, events := collectProgress(t, tc.depth, tc.budget)
			if res.Mode != tc.mode {
				t.Fatalf("mode %q, want %q", res.Mode, tc.mode)
			}
			incumbents := 0
			lastByMode := map[string]float64{}
			var lastNodes int64
			var finalIncumbent float64
			for _, p := range events {
				switch p.Kind {
				case progressIncumbent:
					incumbents++
					if prev, ok := lastByMode[p.Mode]; ok && p.IncumbentTime >= prev {
						t.Fatalf("%s incumbent did not improve: %v after %v", p.Mode, p.IncumbentTime, prev)
					}
					lastByMode[p.Mode] = p.IncumbentTime
					if p.Mode == res.Mode {
						finalIncumbent = p.IncumbentTime
					}
					if p.BoundGap < 0 || p.BoundGap >= 1 {
						t.Fatalf("bound gap %v outside [0, 1)", p.BoundGap)
					}
				case progressCoverage:
					if p.Nodes < lastNodes {
						t.Fatalf("coverage nodes went backwards: %d after %d", p.Nodes, lastNodes)
					}
					lastNodes = p.Nodes
				default:
					t.Fatalf("unknown progress kind %q", p.Kind)
				}
				if p.Mode != ModeBnB && p.Mode != ModeBeam {
					t.Fatalf("unknown progress mode %q", p.Mode)
				}
			}
			if incumbents == 0 {
				t.Fatal("no incumbent events")
			}
			if finalIncumbent != res.Best[0].Time {
				t.Fatalf("last %s incumbent %v != best %v", res.Mode, finalIncumbent, res.Best[0].Time)
			}
		})
	}
}

// TestSearchProgressPublishes checks where a served search's progress
// goes: the search_progress instant events on the advisor.search span.
// Progress reaches no registry series: concurrent searches would
// overwrite one another's gauges.
func TestSearchProgressPublishes(t *testing.T) {
	sc := Scenario{
		Spec:      cluster.Cloud(7),
		Hierarchy: cluster.Cloud(7).Hierarchy(),
		Coll:      Alltoall,
		CommSize:  cluster.Cloud(7).Hierarchy().Size(),
		Bytes:     1 << 18,
	}
	reg := obs.NewRegistry()
	tracer := rt.NewTracer(rt.Options{Service: "test"})
	ctx, root := tracer.StartRequest(context.Background(), "test advise", "")
	if _, err := search(ctx, sc, SearchOptions{Top: 1, Registry: reg}, nodeBudget, beamWidth, 1000); err != nil {
		t.Fatal(err)
	}
	root.End()

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "advisor_search_nodes") {
		t.Errorf("exposition carries a search-progress series:\n%s", out)
	}

	progressEvents := 0
	for _, in := range tracer.Scope().Instants() {
		if in.Name == "search_progress" {
			progressEvents++
		}
	}
	if progressEvents == 0 {
		t.Fatal("no search_progress instant events on the trace")
	}
}
