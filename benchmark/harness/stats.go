// Package harness is the benchmark's own measuring equipment: the seeded
// op schedule, the sample window and its percentile arithmetic, the span
// recorder, and the /proc readers. It imports nothing from the program
// under test, so no refactor of the program can change how a number is
// taken.
package harness

import (
	"math"
	"sort"
)

// PercentileIndex is the index of the nearest-rank p-th percentile
// (0 < p ≤ 100) in a sorted slice of n values.
func PercentileIndex(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Median returns the median of v (mean of the two middle values when the
// count is even) without reordering v; 0 when v is empty.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
