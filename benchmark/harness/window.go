package harness

import (
	"sort"
	"time"
)

// Sample is one op of the measured window.
type Sample struct {
	Index   int           // position in the op sequence
	Start   time.Duration // issue time since the window opened
	Latency time.Duration
	Class   int
	OK      bool
}

// CPUPoint is the cumulative CPU time of the system under test at one
// instant of the window.
type CPUPoint struct {
	At  time.Duration
	CPU time.Duration
}

// FailedLatency stands in for the latency of a failed op: a failed op
// misses every latency, so it sorts above any op that succeeded.
const FailedLatency = time.Hour

// SubWindows is the number of equal stretches a window is cut into.
// Throughput and CPU per op are the median of the stretches, so one slow
// stretch (a neighbour on the machine, a long collection) does not move
// them, while anything that lasts or recurs does.
const SubWindows = 4

// SubWindow is one stretch of the window.
type SubWindow struct {
	// OK is the correct ops completed in the stretch. An op that ran
	// across a boundary counts on each side by the share of its time spent
	// there: with whole ops, the 40 ops a stretch of the slowest workload
	// holds would move its rate in steps of 2.5 %.
	OK         float64 `json:"ok"`
	OpsPerS    float64 `json:"ops_per_s"`
	CPUMsPerOp float64 `json:"cpu_ms_per_op"`
}

// Summary holds the window-derived end-to-end numbers of one run.
type Summary struct {
	Attempted, OK, Failed int
	Subs                  [SubWindows]SubWindow
	ThroughputOpsS        float64 // median over the sub-windows
	CPUMsPerOp            float64 // median over the sub-windows
	LatencyP50Ms          float64 // pooled over the whole window
	LatencyP90Ms          float64
	LatencyP99Ms          float64
	P50Class, P90Class    int // class of the samples around each percentile
}

// Summarize reduces the samples of a window of the given length. cpu
// holds readings of the system's cumulative CPU time, taken a few times a
// second. The part of an op that ran after the window closed counts in no
// sub-window; its latency counts in the percentiles like any other.
func Summarize(samples []Sample, length time.Duration, cpu []CPUPoint) Summary {
	var s Summary
	type lat struct {
		d     time.Duration
		class int
	}
	lats := make([]lat, 0, len(samples))
	sub := length / SubWindows
	for _, sm := range samples {
		s.Attempted++
		d := sm.Latency
		if sm.OK {
			s.OK++
			for i := range s.Subs {
				from, to := max(sm.Start, time.Duration(i)*sub), min(sm.Start+sm.Latency, time.Duration(i+1)*sub)
				if to > from {
					s.Subs[i].OK += float64(to-from) / float64(sm.Latency)
				}
			}
		} else {
			s.Failed++
			d = FailedLatency
		}
		lats = append(lats, lat{d, sm.Class})
	}
	if len(samples) == 0 {
		return s
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i].d < lats[j].d })
	at := func(p float64) lat { return lats[PercentileIndex(len(lats), p)] }
	// The class of a percentile is the one most samples between 2.5 points
	// below and 2.5 points above it belong to, its own sample's on a tie:
	// one op of a cheaper class that a stall stretched to the percentile's
	// latency does not change it, a percentile on a class boundary does.
	classAt := func(p float64) int {
		own := at(p).class
		count := map[int]int{}
		for _, l := range lats[PercentileIndex(len(lats), p-2.5) : PercentileIndex(len(lats), p+2.5)+1] {
			count[l.class]++
		}
		best := own
		for c, n := range count {
			if n > count[best] {
				best = c
			}
		}
		return best
	}
	s.LatencyP50Ms, s.P50Class = ms(at(50).d), classAt(50)
	s.LatencyP90Ms, s.P90Class = ms(at(90).d), classAt(90)
	s.LatencyP99Ms = ms(at(99).d)

	var rates, cpus []float64
	for i := range s.Subs {
		w := &s.Subs[i]
		t0 := time.Duration(i) * sub
		w.OpsPerS = w.OK / sub.Seconds()
		rates = append(rates, w.OpsPerS)
		if w.OK > 0 {
			w.CPUMsPerOp = ms(cpuAt(cpu, t0+sub)-cpuAt(cpu, t0)) / w.OK
			cpus = append(cpus, w.CPUMsPerOp)
		}
	}
	s.ThroughputOpsS = Median(rates)
	s.CPUMsPerOp = Median(cpus)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuAt interpolates the cumulative CPU time at instant t between the two
// readings around it.
func cpuAt(cpu []CPUPoint, t time.Duration) time.Duration {
	if len(cpu) == 0 {
		return 0
	}
	i := sort.Search(len(cpu), func(i int) bool { return cpu[i].At >= t })
	switch {
	case i == 0:
		return cpu[0].CPU
	case i == len(cpu):
		return cpu[len(cpu)-1].CPU
	}
	a, b := cpu[i-1], cpu[i]
	if b.At == a.At {
		return b.CPU
	}
	return a.CPU + time.Duration(float64(b.CPU-a.CPU)*float64(t-a.At)/float64(b.At-a.At))
}
