package metrics

import "math"

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples: how §4.2 attributes Splatt's CPD duration to its Alltoallv time,
// and how the order study relates bandwidth to the §3.3 metrics. It
// returns NaN for fewer than two points or a zero-variance sample, and
// panics on a length mismatch (a caller bug).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("metrics: Pearson length mismatch")
	}
	if len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}
