// CSV emission for downstream plotting of the regenerated figures.

package figures

import (
	"encoding/csv"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/perm"
)

// SeriesCSV renders a micro-benchmark figure's measurements as CSV with
// the columns figure, scenario, order, ring_cost, size_bytes,
// bandwidth_Bps, p10_Bps, p90_Bps.
func SeriesCSV(mb MicroBench, series []bench.Series) (string, error) {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := w.Write([]string{
		"figure", "scenario", "order", "ring_cost", "size_bytes",
		"bandwidth_Bps", "p10_Bps", "p90_Bps",
	}); err != nil {
		return "", err
	}
	emit := func(scenario string, s bench.Series, pts []bench.Point) error {
		for _, pt := range pts {
			rec := []string{
				mb.Name,
				scenario,
				perm.Format(s.Order),
				fmt.Sprint(s.Char.RingCost),
				fmt.Sprint(pt.Size),
				fmt.Sprintf("%.6g", pt.Bandwidth),
				fmt.Sprintf("%.6g", pt.P10),
				fmt.Sprintf("%.6g", pt.P90),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range series {
		if err := emit("one", s, s.OneComm); err != nil {
			return "", err
		}
		if err := emit("all", s, s.AllComms); err != nil {
			return "", err
		}
	}
	w.Flush()
	return sb.String(), w.Error()
}
