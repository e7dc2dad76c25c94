package trace

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestTimeInAndCensus(t *testing.T) {
	r := NewRecorder()
	// Two ranks, two comms (id 1 size 16, id 2 size 16), one comm of 4.
	r.Collective(1, 16, "Alltoall", 100, 0, 0.0, 1.0)
	r.Collective(1, 16, "Alltoall", 100, 1, 0.0, 3.0)
	r.Collective(2, 16, "Alltoall", 100, 2, 0.0, 2.0)
	r.Collective(3, 4, "Bcast", 10, 0, 1.0, 1.5)

	// Mean over ranks of total Alltoall time on 16-comms: (1+3+2)/3 = 2.
	if got := r.TimeIn("Alltoall", 16); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("TimeIn(Alltoall, 16) = %v, want 2", got)
	}
	if got := r.TimeIn("Bcast", 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TimeIn(Bcast, any) = %v, want 0.5", got)
	}
	if got := r.TimeIn("Reduce", 0); got != 0 {
		t.Errorf("TimeIn(absent op) = %v", got)
	}
	census := r.CommCount()
	if census[16] != 2 || census[4] != 1 {
		t.Errorf("census = %v", census)
	}
}

func TestOpTimesAndReport(t *testing.T) {
	r := NewRecorder()
	r.Collective(1, 8, "Allreduce", 64, 0, 0, 2)
	r.Collective(1, 8, "Bcast", 64, 0, 2, 2.5)
	ops := r.OpTimes()
	if ops["Allreduce"] != 2 || ops["Bcast"] != 0.5 {
		t.Errorf("OpTimes = %v", ops)
	}
	rep := r.Report()
	if !strings.Contains(rep, "Allreduce") || !strings.Contains(rep, "size 8") {
		t.Errorf("Report = %q", rep)
	}
}

func TestRecordsAndReset(t *testing.T) {
	r := NewRecorder()
	r.Collective(1, 2, "Scan", 8, 0, 0, 1)
	if r.Len() != 1 {
		t.Error("record not stored")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear records")
	}
}

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
	yFlat := []float64{3, 3, 3, 3, 3}
	if got := Pearson(x, yFlat); !math.IsNaN(got) {
		t.Errorf("zero-variance correlation = %v, want NaN", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); !math.IsNaN(got) {
		t.Errorf("single-point correlation = %v, want NaN", got)
	}
	// Noisy but strongly correlated.
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	if got := Pearson(x, y); got < 0.99 {
		t.Errorf("noisy correlation = %v, want > 0.99", got)
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

func TestCorrelationErrors(t *testing.T) {
	if _, err := Correlation([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Correlation([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample: want error")
	}
	if _, err := Correlation(nil, nil); err == nil {
		t.Error("empty samples: want error")
	}
	if _, err := Correlation([]float64{1, 2, 3}, []float64{5, 5, 5}); err == nil {
		t.Error("zero variance: want error")
	}
	got, err := Correlation([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v, %v", got, err)
	}
}

func TestEmptyRecorderQueries(t *testing.T) {
	r := NewRecorder()
	if got := r.TimeIn("Alltoall", 16); got != 0 {
		t.Errorf("TimeIn on empty recorder = %v, want 0", got)
	}
	if got := r.MaxTimeIn("", 0); got != 0 {
		t.Errorf("MaxTimeIn on empty recorder = %v, want 0", got)
	}
	if got := r.PercentileTime("", 0, 0.5); got != 0 || math.IsNaN(got) {
		t.Errorf("PercentileTime on empty recorder = %v, want NaN-free 0", got)
	}
	if got := r.Len(); got != 0 {
		t.Errorf("Len on empty recorder = %d", got)
	}
	if got := len(r.CommCount()); got != 0 {
		t.Errorf("CommCount on empty recorder has %d entries", got)
	}
	if rep := r.Report(); rep == "" {
		t.Error("Report on empty recorder should still render headers")
	}
}

func TestPercentileTime(t *testing.T) {
	r := NewRecorder()
	// Four ranks with per-rank totals 1, 2, 3, 4.
	for rank := 0; rank < 4; rank++ {
		r.Collective(7, 4, "Alltoall", 1024, rank, 0, float64(rank+1))
	}
	if got := r.PercentileTime("Alltoall", 4, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := r.PercentileTime("Alltoall", 4, 1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := r.PercentileTime("Alltoall", 4, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := r.PercentileTime("Bcast", 0, 0.5); got != 0 {
		t.Errorf("no matching op = %v, want 0", got)
	}
}

func TestResetSpansMeasurements(t *testing.T) {
	r := NewRecorder()
	r.Collective(1, 2, "Allreduce", 64, 0, 0, 1)
	r.Collective(1, 2, "Allreduce", 64, 1, 0, 3)
	first := r.TimeIn("Allreduce", 2)
	if first != 2 {
		t.Errorf("first measurement mean = %v, want 2", first)
	}
	r.Reset()
	r.Collective(1, 2, "Allreduce", 64, 0, 0, 5)
	r.Collective(1, 2, "Allreduce", 64, 1, 0, 5)
	if got := r.TimeIn("Allreduce", 2); got != 5 {
		t.Errorf("second measurement mean = %v, want 5 (stale records survived Reset)", got)
	}
}

// PercentileTime returns the q-th percentile (0 ≤ q ≤ 1, linearly
// interpolated) over ranks of the total time spent in the given operation
// on communicators of the given size (0/"" match any). An empty selection
// returns 0, never NaN, so an unpopulated recorder is safe to query.
func (r *Recorder) PercentileTime(op string, commSize int, q float64) float64 {
	r.mu.Lock()
	perRank := map[int]float64{}
	for _, rec := range r.recs {
		if op != "" && rec.Op != op {
			continue
		}
		if commSize != 0 && rec.CommSize != commSize {
			continue
		}
		perRank[rec.Rank] += rec.End - rec.Start
	}
	r.mu.Unlock()
	if len(perRank) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(perRank))
	for _, v := range perRank {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + frac*(vals[lo+1]-vals[lo])
}
