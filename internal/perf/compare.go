// The regression gate: a benchstat-style comparison of two trajectory
// points. Each benchmark's ns/op samples are compared with a two-sided
// Mann-Whitney U test (normal approximation with tie correction, the
// same statistic benchstat uses); a benchmark regresses only when the
// median moved beyond the suite's threshold AND the shift is
// statistically significant, so one noisy sample cannot fail CI while a
// real 20% kernel slowdown cannot hide.

package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Comparison is the verdict for one benchmark present in both records.
type Comparison struct {
	Name      string
	OldMedian float64 // ns/op
	NewMedian float64
	// Delta is the relative change of the median ((new-old)/old);
	// positive means slower.
	Delta float64
	// P is the two-sided Mann-Whitney p-value (1 when either side has
	// fewer than 3 samples, which can never be significant).
	P float64
	// Significant reports P < alpha with enough samples.
	Significant bool
	// Regressed: Delta > threshold and Significant.
	Regressed bool
	// Improved: Delta < -threshold and Significant.
	Improved bool
}

// DiffOptions tunes Diff.
type DiffOptions struct {
	// Threshold is the relative slowdown that counts as a regression
	// (default 0.10 = 10%). Suites override it via their Threshold.
	Threshold float64
	// Alpha is the significance level (default 0.05).
	Alpha float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Threshold <= 0 {
		o.Threshold = 0.10
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	return o
}

// DiffResult is the full comparison of two records.
type DiffResult struct {
	Suite       string
	Comparisons []Comparison
	// OnlyOld / OnlyNew list benchmarks present in one record only —
	// a renamed or deleted benchmark shows up here instead of silently
	// dropping out of the gate.
	OnlyOld, OnlyNew []string
	Threshold        float64
}

// Regressions returns the comparisons that regressed.
func (d *DiffResult) Regressions() []Comparison {
	var out []Comparison
	for _, c := range d.Comparisons {
		if c.Regressed {
			out = append(out, c)
		}
	}
	return out
}

// Diff compares two records of the same suite taken on the same number
// of CPUs.
func Diff(old, new_ *Record, opts DiffOptions) (*DiffResult, error) {
	if old.Suite != new_.Suite {
		return nil, fmt.Errorf("perf: comparing suite %q against %q", old.Suite, new_.Suite)
	}
	if old.NumCPU != new_.NumCPU {
		return nil, fmt.Errorf("perf: comparing a %d-CPU record against a %d-CPU one: timings from different machines are not comparable, re-record the baseline here",
			old.NumCPU, new_.NumCPU)
	}
	opts = opts.withDefaults()
	d := &DiffResult{Suite: old.Suite, Threshold: opts.Threshold}
	newByName := map[string]*Result{}
	for i := range new_.Results {
		newByName[new_.Results[i].Name] = &new_.Results[i]
	}
	seen := map[string]bool{}
	for i := range old.Results {
		or := &old.Results[i]
		nr, ok := newByName[or.Name]
		if !ok {
			d.OnlyOld = append(d.OnlyOld, or.Name)
			continue
		}
		seen[or.Name] = true
		c := Comparison{
			Name:      or.Name,
			OldMedian: median(or.Samples),
			NewMedian: median(nr.Samples),
		}
		if c.OldMedian > 0 {
			c.Delta = (c.NewMedian - c.OldMedian) / c.OldMedian
		}
		c.P = mannWhitney(or.Samples, nr.Samples)
		c.Significant = c.P < opts.Alpha && len(or.Samples) >= 3 && len(nr.Samples) >= 3
		c.Regressed = c.Significant && c.Delta > opts.Threshold
		c.Improved = c.Significant && c.Delta < -opts.Threshold
		d.Comparisons = append(d.Comparisons, c)
	}
	for i := range new_.Results {
		if !seen[new_.Results[i].Name] {
			d.OnlyNew = append(d.OnlyNew, new_.Results[i].Name)
		}
	}
	sort.Slice(d.Comparisons, func(i, j int) bool { return d.Comparisons[i].Name < d.Comparisons[j].Name })
	sort.Strings(d.OnlyOld)
	sort.Strings(d.OnlyNew)
	return d, nil
}

// mannWhitney returns the two-sided p-value that xs and ys come from the
// same distribution, via the normal approximation of the Mann-Whitney U
// statistic with tie correction. Small samples (< 3 per side) return 1:
// they cannot reach significance and should not pretend to.
func mannWhitney(xs, ys []float64) float64 {
	n1, n2 := len(xs), len(ys)
	if n1 < 3 || n2 < 3 {
		return 1
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range xs {
		all = append(all, obs{v, 0})
	}
	for _, v := range ys {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks with tie accounting.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1*(n1+1))/2
	mu := float64(n1*n2) / 2
	n := float64(n1 + n2)
	sigma2 := float64(n1*n2) / 12 * (n + 1 - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		// All observations tied: no evidence of a shift.
		return 1
	}
	// Continuity correction.
	z := (math.Abs(u1-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	return 2 * (1 - stdNormCDF(z))
}

// stdNormCDF is Φ(z) via the complementary error function.
func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Format renders the comparison as an aligned human-readable table.
func (d *DiffResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite %s: %d benchmarks compared (threshold %.0f%%)\n",
		d.Suite, len(d.Comparisons), 100*d.Threshold)
	fmt.Fprintf(&b, "%-56s %14s %14s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta", "p")
	for _, c := range d.Comparisons {
		verdict := ""
		switch {
		case c.Regressed:
			verdict = "  REGRESSED"
		case c.Improved:
			verdict = "  improved"
		case !c.Significant:
			verdict = "  ~"
		}
		fmt.Fprintf(&b, "%-56s %14.0f %14.0f %+7.1f%% %8.3f%s\n",
			c.Name, c.OldMedian, c.NewMedian, 100*c.Delta, c.P, verdict)
	}
	for _, name := range d.OnlyOld {
		fmt.Fprintf(&b, "%-56s only in old record\n", name)
	}
	for _, name := range d.OnlyNew {
		fmt.Fprintf(&b, "%-56s only in new record\n", name)
	}
	return b.String()
}
