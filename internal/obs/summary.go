// Terminal flame-style summary: the top-k span names by cumulative
// virtual time (with proportional bars) and the per-hierarchy-level byte
// breakdown, for humans who will not open Perfetto.

package obs

import (
	"fmt"
	"sort"
	"strings"
)

// opStat aggregates spans sharing a name.
type opStat struct {
	name  string
	total float64
	max   float64
	count int
}

// Summary renders the scope's headline view: top-k operations by
// cumulative virtual time across all tracks, then the bytes moved per
// hierarchy level (from the mpi_level_bytes_total counters).
func Summary(s *Scope, topK int) string {
	if s == nil {
		return "observability disabled\n"
	}
	if topK <= 0 {
		topK = 10
	}
	var b strings.Builder

	stats := map[string]*opStat{}
	for _, sp := range s.Spans() {
		if sp.Cat == "sim" {
			continue // blocked-time spans would dwarf the operations
		}
		st := stats[sp.Name]
		if st == nil {
			st = &opStat{name: sp.Name}
			stats[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.total += d
		if d > st.max {
			st.max = d
		}
		st.count++
	}
	ordered := make([]*opStat, 0, len(stats))
	for _, st := range stats {
		ordered = append(ordered, st)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].total != ordered[j].total {
			return ordered[i].total > ordered[j].total
		}
		return ordered[i].name < ordered[j].name
	})
	if len(ordered) > topK {
		ordered = ordered[:topK]
	}

	fmt.Fprintf(&b, "top %d operations by cumulative virtual time (all tracks)\n", len(ordered))
	var widest float64
	for _, st := range ordered {
		if st.total > widest {
			widest = st.total
		}
	}
	for _, st := range ordered {
		bar := ""
		if widest > 0 {
			bar = strings.Repeat("█", 1+int(29*st.total/widest))
		}
		fmt.Fprintf(&b, "  %-16s %12.6f s  ×%-7d max %10.6f s  %s\n",
			st.name, st.total, st.count, st.max, bar)
	}
	if dropped := s.DroppedSpans(); dropped > 0 {
		fmt.Fprintf(&b, "  (%d spans dropped past the span cap, which is %d in every command)\n", dropped, defaultMaxSpans)
	}

	reg := s.Registry()
	levelSum := 0.0
	var levels []Point
	for _, p := range reg.Snapshot() {
		if p.Name == "mpi_level_bytes_total" {
			levels = append(levels, p)
			levelSum += p.Value
		}
	}
	if len(levels) > 0 {
		fmt.Fprintf(&b, "bytes moved per hierarchy level\n")
		for _, p := range levels {
			name := "?"
			for _, l := range p.Labels {
				if l.Key == "level" {
					name = l.Value
				}
			}
			pct := 0.0
			if levelSum > 0 {
				pct = 100 * p.Value / levelSum
			}
			fmt.Fprintf(&b, "  %-10s %15.0f B  %5.1f%%\n", name, p.Value, pct)
		}
		fmt.Fprintf(&b, "  %-10s %15.0f B  (total %s)\n", "sum", levelSum,
			formatValue(reg.FindCounter("mpi_bytes_total")))
	}
	return b.String()
}
