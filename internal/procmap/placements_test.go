package procmap

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/commmatrix"
	"repro/internal/topology"
)

var updatePlacements = flag.Bool("update-placements", false,
	"rewrite testdata/placements.jsonl from this build's Map")

// pinnedPlacement is everything Map reports for one (shape, seed, with or
// without the BestOrder start) apart from the placement itself, which is
// pinned through its FNV-1a hash.
type pinnedPlacement struct {
	Name       string
	Seed       int64
	OrderInit  bool
	Cost       float64
	GreedyCost float64
	Rounds     int
	Swaps      int
	Placement  uint64
}

// TestPlacementsPinned holds Map to the placements recorded at commit
// 7843a36 (division-loop pairCost, map overlays, full-rescan KL) on the
// three matrix shapes the serving benchmark sends: the search may get
// faster; it may not search differently. Tier-1 fails here before the
// benchmark's golden /v1/map/matrix responses do.
func TestPlacementsPinned(t *testing.T) {
	const golden = "testdata/placements.jsonl"
	shapes := []struct {
		name string
		h    topology.Hierarchy
		gen  func() (*commmatrix.Matrix, error)
	}{
		{"halo-8x16", topology.MustNew(4, 2, 2, 8), func() (*commmatrix.Matrix, error) { return Halo(8, 16, 1024) }},
		{"halo-16x32", topology.MustNew(4, 2, 4, 2, 8), func() (*commmatrix.Matrix, error) { return Halo(16, 32, 1024) }},
		{"layers-4x4x4", topology.MustNew(2, 2, 2, 8), func() (*commmatrix.Matrix, error) {
			return GridLayers([3]int{4, 4, 4}, [3]float64{10, 1000, 10})
		}},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range shapes {
		m, err := s.gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{0, 1, 7} {
			for _, orderInit := range []bool{true, false} {
				res, err := Map(context.Background(), m, s.h, Options{Seed: seed, NoOrderInit: !orderInit})
				if err != nil {
					t.Fatalf("%s seed %d: %v", s.name, seed, err)
				}
				f := fnv.New64a()
				for _, c := range res.Placement {
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], uint64(c))
					f.Write(b[:])
				}
				// One (shape, seed, start) per line keeps diffs per case.
				if err := enc.Encode(pinnedPlacement{s.name, seed, orderInit, res.Cost, res.GreedyCost,
					res.Rounds, res.Swaps, f.Sum64()}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if *updatePlacements {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("placements moved; got\n%swant\n%s", buf.Bytes(), want)
	}
}
