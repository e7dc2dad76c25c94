package harness

import (
	"fmt"
	"math/rand"
)

// Class is one op class of a workload. A workload lists its classes
// cheapest first, so their cumulative shares are the boundaries between
// the latency tiers that CheckMargins keeps the reported percentiles
// away from.
type Class struct {
	Name     string
	Share    int // percent of ops; a workload's shares sum to 100
	Variants int // distinct request shapes in the class, at least 1
}

// Op is one position of a workload's op sequence.
type Op struct {
	Index   int // position in the sequence
	Class   int // index into the workload's classes
	Variant int // seeded pick in [0, Variants)
	Serial  int // earlier ops of the same class; unique within the class
}

// Schedule is a stratified round-robin over op classes. The class of
// position i does not depend on the seed: a smooth weighted round-robin
// spreads every class evenly over a cycle of 100/gcd(shares) ops, so every
// run of whole cycles — every block of 100 ops in particular — has exactly
// the declared class mix. The seed decides only which variant an op uses:
// each class walks a seeded shuffle of its variants, so any Variants
// consecutive ops of a class cover each variant once.
type Schedule struct {
	cycle    []int   // class of each position of one cycle
	rank     []int   // rank[p]: earlier positions of the cycle with the same class
	perCycle []int   // ops of each class per cycle
	variants [][]int // seeded shuffle of each class's variants
}

// NewSchedule builds the schedule of classes for seed.
func NewSchedule(classes []Class, seed int64) (*Schedule, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("harness: no op classes")
	}
	total, g := 0, 0
	for _, c := range classes {
		if c.Share <= 0 || c.Variants <= 0 {
			return nil, fmt.Errorf("harness: class %q needs a positive share and variant count", c.Name)
		}
		total += c.Share
		g = gcd(g, c.Share)
	}
	if total != 100 {
		return nil, fmt.Errorf("harness: class shares sum to %d, want 100", total)
	}
	s := &Schedule{perCycle: make([]int, len(classes))}
	weights := make([]int, len(classes))
	for i, c := range classes {
		weights[i] = c.Share / g
	}
	period := total / g
	current := make([]int, len(classes))
	for p := 0; p < period; p++ {
		best := 0
		for i := range current {
			current[i] += weights[i]
			if current[i] > current[best] {
				best = i
			}
		}
		current[best] -= period
		s.cycle = append(s.cycle, best)
		s.rank = append(s.rank, s.perCycle[best])
		s.perCycle[best]++
	}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range classes {
		s.variants = append(s.variants, rng.Perm(c.Variants))
	}
	return s, nil
}

// CycleLen is the number of ops after which the class sequence repeats:
// any run of that many consecutive ops has exactly the declared mix.
func (s *Schedule) CycleLen() int { return len(s.cycle) }

// At returns the op at position i of the sequence.
func (s *Schedule) At(i int) Op {
	p := i % len(s.cycle)
	c := s.cycle[p]
	serial := i/len(s.cycle)*s.perCycle[c] + s.rank[p]
	v := s.variants[c]
	return Op{Index: i, Class: c, Variant: v[serial%len(v)], Serial: serial}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TierMargin is the distance, in percentage points, from percentile p to
// the nearest boundary between two classes in the cumulative shares.
// Workloads with one class have no boundary and report 100.
func TierMargin(classes []Class, p float64) float64 {
	margin, cum := 100.0, 0.0
	for _, c := range classes[:len(classes)-1] {
		cum += float64(c.Share)
		d := p - cum
		if d < 0 {
			d = -d
		}
		if d < margin {
			margin = d
		}
	}
	return margin
}

// MinTierMargin is how far a reported percentile must stay from a class
// boundary: nearer than that, a small shift in class cost moves the
// percentile from one class's latency to the next one's.
const MinTierMargin = 5

// CheckMargins fails when a reported percentile sits within MinTierMargin
// points of a class boundary.
func CheckMargins(classes []Class, percentiles ...float64) error {
	for _, p := range percentiles {
		if m := TierMargin(classes, p); m < MinTierMargin {
			return fmt.Errorf("harness: p%g is %g points from a class boundary, want at least %d", p, m, MinTierMargin)
		}
	}
	return nil
}
