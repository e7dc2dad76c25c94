package figures

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/metrics"
)

func TestSeriesCSV(t *testing.T) {
	mb := MicroBench{Name: "figure3"}
	series := []bench.Series{{
		Order: []int{0, 1, 2, 3},
		Char:  metrics.Characterization{Order: []int{0, 1, 2, 3}, RingCost: 60},
		OneComm: []bench.Point{
			{Size: 1 << 20, Bandwidth: 1e9, P10: 0.9e9, P90: 1.1e9},
		},
		AllComms: []bench.Point{
			{Size: 1 << 20, Bandwidth: 2e8, P10: 1.8e8, P90: 2.2e8},
		},
	}}
	out, err := SeriesCSV(mb, series)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "figure,scenario,order,ring_cost") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "figure3,one,0-1-2-3,60,1048576,1e+09") {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "figure3,all,") {
		t.Errorf("row = %q", lines[2])
	}
}
