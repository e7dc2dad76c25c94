package metrics

import (
	"math"
	"testing"
)

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPerfect := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, yPerfect); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", got)
	}
	yInv := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yInv); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	// Noisy but strongly correlated.
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	if got := Pearson(x, y); got < 0.99 {
		t.Errorf("noisy correlation = %v, want > 0.99", got)
	}
}

// TestPearsonDegenerateSamples holds Pearson to NaN wherever the
// coefficient is undefined: fewer than two samples or a constant series.
func TestPearsonDegenerateSamples(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y []float64
	}{
		{"zero variance in y", []float64{1, 2, 3, 4, 5}, []float64{3, 3, 3, 3, 3}},
		{"zero variance in x", []float64{5, 5, 5}, []float64{1, 2, 3}},
		{"single point", []float64{1}, []float64{2}},
		{"empty", nil, nil},
	} {
		if got := Pearson(tc.x, tc.y); !math.IsNaN(got) {
			t.Errorf("%s: correlation = %v, want NaN", tc.name, got)
		}
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("three-point perfect correlation = %v", got)
	}
}

func TestPearsonPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}
