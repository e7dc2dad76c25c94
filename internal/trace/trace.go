// Package trace is the simulation's stand-in for mpisee (Vardas et al.,
// §4.2): a per-communicator profiler recording how much time each rank
// spends in each collective of each communicator, plus the Pearson
// correlation the paper uses to attribute Splatt's CPD duration to the
// MPI_Alltoallv time of its 16-process communicators.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Record is one collective call observed on one rank.
type Record struct {
	CommID   int
	CommSize int
	Op       string
	Bytes    int64
	Rank     int
	Start    float64
	End      float64
}

// Recorder implements mpi.Tracer, collecting per-operation records.
// It is safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	recs []Record
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Collective implements the mpi.Tracer interface.
func (r *Recorder) Collective(commID, commSize int, op string, bytes int64, rank int, start, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, Record{
		CommID: commID, CommSize: commSize, Op: op, Bytes: bytes,
		Rank: rank, Start: start, End: end,
	})
}

// Len returns the number of records.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Reset discards all records, so one recorder can span multiple
// measurements (record, analyze, Reset, record again).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = nil
}

// TimeIn returns the mean over ranks of the total time spent in the given
// operation on communicators of the given size (0 matches any size, ""
// matches any operation). This is the quantity correlated with the
// application duration in §4.2.
func (r *Recorder) TimeIn(op string, commSize int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	if len(perRank) == 0 {
		return 0
	}
	var sum float64
	for _, v := range perRank {
		sum += v
	}
	return sum / float64(len(perRank))
}

// MaxTimeIn returns the maximum over ranks of the total time spent in the
// given operation on communicators of the given size (0/"" match any).
// For imbalanced workloads this straggler view attributes time to the
// operation that actually consumed it: with a dominant communicator, the
// mean dilutes its cost 1/commCount and the waiting of the other ranks
// surfaces in whatever operation follows.
func (r *Recorder) MaxTimeIn(op string, commSize int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	var mx float64
	for _, v := range perRank {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// CommCount returns how many distinct communicators of each size appear in
// the records — the mpisee communicator census ("Splatt uses 3 comms with
// all 1024 processes, 8 with 256, 64 with 16").
func (r *Recorder) CommCount() map[int]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sizes := map[int]map[int]bool{}
	for _, rec := range r.recs {
		if sizes[rec.CommSize] == nil {
			sizes[rec.CommSize] = map[int]bool{}
		}
		sizes[rec.CommSize][rec.CommID] = true
	}
	out := map[int]int{}
	for size, ids := range sizes {
		out[size] = len(ids)
	}
	return out
}

// OpTimes returns the mean-over-ranks total time per operation name.
func (r *Recorder) OpTimes() map[string]float64 {
	r.mu.Lock()
	ops := map[string]bool{}
	for _, rec := range r.recs {
		ops[rec.Op] = true
	}
	r.mu.Unlock()
	out := map[string]float64{}
	for op := range ops {
		out[op] = r.TimeIn(op, 0)
	}
	return out
}

// Report renders an mpisee-style per-communicator-size summary.
func (r *Recorder) Report() string {
	var b strings.Builder
	counts := r.CommCount()
	sizes := make([]int, 0, len(counts))
	for s := range counts {
		sizes = append(sizes, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	fmt.Fprintf(&b, "communicator census:\n")
	for _, s := range sizes {
		fmt.Fprintf(&b, "  %3d communicator(s) of size %d\n", counts[s], s)
	}
	fmt.Fprintf(&b, "time per operation (mean over ranks):\n")
	ops := r.OpTimes()
	names := make([]string, 0, len(ops))
	for op := range ops {
		names = append(names, op)
	}
	sort.Slice(names, func(i, j int) bool { return ops[names[i]] > ops[names[j]] })
	for _, op := range names {
		fmt.Fprintf(&b, "  %-14s %10.6f s\n", op, ops[op])
	}
	return b.String()
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It returns NaN for fewer than two points or zero variance, and
// panics on a length mismatch (a caller bug). Callers that prefer explicit
// errors over panics/NaN should use Correlation.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("trace: Pearson length mismatch")
	}
	r, err := Correlation(x, y)
	if err != nil {
		return math.NaN()
	}
	return r
}

// Correlation is Pearson with explicit errors: a length mismatch, fewer
// than two samples, and zero variance each return a described error
// instead of panicking or producing NaN.
func Correlation(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("trace: correlation of mismatched samples (%d vs %d)", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("trace: correlation needs at least 2 samples, have %d", len(x))
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
		return 0, fmt.Errorf("trace: correlation undefined for zero-variance sample")
	}
	return cov / math.Sqrt(vx*vy), nil
}
