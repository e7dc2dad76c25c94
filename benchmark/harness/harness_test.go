package harness

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var testClasses = []Class{
	{Name: "light", Share: 40, Variants: 5},
	{Name: "medium", Share: 35, Variants: 5},
	{Name: "heavy", Share: 25, Variants: 3},
}

func sequence(t *testing.T, seed int64, n int) []Op {
	t.Helper()
	s, err := NewSchedule(testClasses, seed)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.At(i)
	}
	return ops
}

func TestScheduleSameSeedSameSequence(t *testing.T) {
	a, b := sequence(t, 7, 1000), sequence(t, 7, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different op sequences")
	}
	c := sequence(t, 8, 1000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same op sequence")
	}
	for i := range a {
		if a[i].Class != c[i].Class {
			t.Fatalf("op %d: class depends on the seed (%d vs %d)", i, a[i].Class, c[i].Class)
		}
	}
}

func TestScheduleEveryBlockOf100HasTheClassMix(t *testing.T) {
	ops := sequence(t, 3, 5000)
	for start := 0; start+100 <= len(ops); start += 100 {
		count := make([]int, len(testClasses))
		for _, op := range ops[start : start+100] {
			count[op.Class]++
		}
		for c, cl := range testClasses {
			if count[c] != cl.Share {
				t.Fatalf("ops %d..%d hold %d ops of class %s, want %d", start, start+99, count[c], cl.Name, cl.Share)
			}
		}
	}
	// Any run of one cycle, wherever it starts, has the mix too.
	s, _ := NewSchedule(testClasses, 3)
	if s.CycleLen() != 20 {
		t.Fatalf("cycle of %d ops, want 20", s.CycleLen())
	}
	for start := 0; start < 60; start++ {
		count := make([]int, len(testClasses))
		for _, op := range ops[start : start+20] {
			count[op.Class]++
		}
		if !reflect.DeepEqual(count, []int{8, 7, 5}) {
			t.Fatalf("ops %d..%d hold %v ops per class, want [8 7 5]", start, start+19, count)
		}
	}
}

func TestScheduleVariantsAndSerials(t *testing.T) {
	ops := sequence(t, 5, 2000)
	serial := make([]int, len(testClasses))
	seen := make([]map[int]int, len(testClasses))
	for i := range seen {
		seen[i] = map[int]int{}
	}
	for _, op := range ops {
		if op.Serial != serial[op.Class] {
			t.Fatalf("op %d: serial %d, want %d", op.Index, op.Serial, serial[op.Class])
		}
		serial[op.Class]++
		seen[op.Class][op.Variant]++
		// Each run of Variants consecutive class ops covers every variant.
		if n := testClasses[op.Class].Variants; serial[op.Class]%n == 0 {
			for v := 0; v < n; v++ {
				if seen[op.Class][v] != serial[op.Class]/n {
					t.Fatalf("class %d variant %d used %d times in %d ops", op.Class, v, seen[op.Class][v], serial[op.Class])
				}
			}
		}
	}
}

func TestScheduleRejectsBadShares(t *testing.T) {
	for _, classes := range [][]Class{
		nil,
		{{Name: "a", Share: 60, Variants: 1}, {Name: "b", Share: 30, Variants: 1}},
		{{Name: "a", Share: 100, Variants: 0}},
		{{Name: "a", Share: 0, Variants: 1}, {Name: "b", Share: 100, Variants: 1}},
	} {
		if _, err := NewSchedule(classes, 1); err == nil {
			t.Errorf("NewSchedule(%v) succeeded", classes)
		}
	}
}

func TestTierMargins(t *testing.T) {
	// Boundaries at 40 and 75.
	for _, tc := range []struct{ p, want float64 }{{50, 10}, {90, 15}, {40, 0}, {72, 3}, {99, 24}} {
		if got := TierMargin(testClasses, tc.p); got != tc.want {
			t.Errorf("TierMargin(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if err := CheckMargins(testClasses, 50, 90); err != nil {
		t.Errorf("p50 and p90 are 10 and 15 points from a boundary: %v", err)
	}
	if err := CheckMargins(testClasses, 50, 72); err == nil {
		t.Error("p72 is 3 points from the boundary at 75 and passed")
	}
	one := []Class{{Name: "only", Share: 100, Variants: 9}}
	if err := CheckMargins(one, 50, 90, 99); err != nil {
		t.Errorf("a single class has no boundary: %v", err)
	}
	// The suggested mix of search_deep keeps p90 exactly 5 points away.
	deep := []Class{{"a", 20, 1}, {"b", 20, 1}, {"c", 30, 1}, {"d", 15, 1}, {"e", 15, 1}}
	if err := CheckMargins(deep, 50, 90); err != nil {
		t.Errorf("margins of 10 and 5 points: %v", err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	// Nearest rank: the p-th percentile of n sorted values is value
	// number ceil(p/100·n), counted from one.
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{10, 50, 4}, {10, 90, 8}, {10, 99, 9}, {10, 100, 9}, {10, 1, 0}, {10, 10, 0}, {10, 11, 1}, {100, 90, 89}, {134, 90, 120}, {1, 50, 0}, {0, 50, 0}} {
		if got := PercentileIndex(tc.n, tc.p); got != tc.want {
			t.Errorf("p%g of %d values is at index %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
	if Median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 9,1,5 = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
	in := []float64{3, 1, 2}
	Median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("Median reordered its input")
	}
}

func subOps(s Summary) (ops [SubWindows]float64) {
	for i, sub := range s.Subs {
		ops[i] = sub.OK
	}
	return ops
}

func TestSummarizeMedianOfSubWindowsKeepsASlowQuarter(t *testing.T) {
	// A 20 s window, one client. Sub-windows 0, 1 and 3 complete an op
	// every 10 ms; sub-window 2 is disturbed: an op every 20 ms, each
	// taking 40 ms. The system burns one CPU second per second.
	const length = 20 * time.Second
	var samples []Sample
	for at := time.Duration(0); at < length; {
		gap, lat := 10*time.Millisecond, 10*time.Millisecond
		if at >= 10*time.Second && at < 15*time.Second {
			gap, lat = 20*time.Millisecond, 40*time.Millisecond
		}
		samples = append(samples, Sample{Index: len(samples), Start: at, Latency: lat, OK: true})
		at += gap
	}
	var cpu []CPUPoint
	for at := time.Duration(0); at <= length; at += 250 * time.Millisecond {
		cpu = append(cpu, CPUPoint{At: at, CPU: at})
	}
	s := Summarize(samples, length, cpu)
	if s.Attempted != 1750 || s.OK != 1750 || s.Failed != 0 {
		t.Fatalf("counts %d/%d/%d, want 1750 ok", s.Attempted, s.OK, s.Failed)
	}
	// The last disturbed op runs from 14.98 to 15.02 s and counts half in
	// sub-window 2 and half in sub-window 3.
	if got := subOps(s); got != [SubWindows]float64{500, 500, 249.5, 500.5} {
		t.Fatalf("ops per sub-window %v", got)
	}
	// Median of 100, 100, 49.9 and 100.1 op/s: the slow quarter does not
	// move the throughput, and a slow half would.
	if math.Abs(s.ThroughputOpsS-100) > 1e-9 {
		t.Errorf("throughput %g, want 100", s.ThroughputOpsS)
	}
	// 5 CPU seconds per sub-window: median of 10, 10, 5000/249.5 and
	// 5000/500.5 ms per op.
	if math.Abs(s.CPUMsPerOp-10) > 1e-6 {
		t.Errorf("cpu per op %g, want 10", s.CPUMsPerOp)
	}
	// Percentiles are pooled over the whole window, so the disturbed
	// seventh of the ops is the slowest seventh: p50 is undisturbed and
	// p90 is not.
	if s.LatencyP50Ms != 10 || s.LatencyP90Ms != 40 {
		t.Errorf("p50 %g p90 %g, want 10 and 40 ms", s.LatencyP50Ms, s.LatencyP90Ms)
	}
}

func TestSummarizePoolsPercentilesAndCountsFailures(t *testing.T) {
	// Two classes in a cycle of 10: nine fast ops and one slow one; 100
	// ops, one every 5 ms, in a window of 500 ms.
	var samples []Sample
	for i := 0; i < 100; i++ {
		sm := Sample{Index: i, Start: time.Duration(i) * 5 * time.Millisecond,
			Latency: time.Duration(1+i%10) * time.Millisecond, OK: true}
		if i%10 == 9 {
			sm.Class = 1
		}
		samples = append(samples, sm)
	}
	samples[3].OK = false // a failed op misses every latency
	s := Summarize(samples, 500*time.Millisecond, nil)
	if s.Attempted != 100 || s.OK != 99 || s.Failed != 1 {
		t.Fatalf("counts %d/%d/%d", s.Attempted, s.OK, s.Failed)
	}
	// 100 pooled latencies: ten each of 1..10 ms, with one of the 4 ms
	// ones replaced by the failure, which sorts last. Nearest rank: the
	// 50th value is the first 6 (49 values are 5 or less), the 90th the
	// first 10, the 99th the last 10; the failure is the 100th.
	if s.LatencyP50Ms != 6 || s.P50Class != 0 {
		t.Errorf("p50 %g of class %d, want 6 ms of class 0", s.LatencyP50Ms, s.P50Class)
	}
	if s.LatencyP90Ms != 10 || s.P90Class != 1 {
		t.Errorf("p90 %g of class %d, want 10 ms of class 1", s.LatencyP90Ms, s.P90Class)
	}
	if s.LatencyP99Ms != 10 {
		t.Errorf("p99 %g, want 10", s.LatencyP99Ms)
	}
	// Sub-windows of 125 ms. The failed op is in the first; op 49 (245 to
	// 255 ms) counts half on each side of 250 ms; op 99 (495 to 505 ms)
	// spends half its time after the window closed.
	if got := subOps(s); got != [SubWindows]float64{24, 24.5, 25.5, 24.5} {
		t.Errorf("ops per sub-window %v", got)
	}
	if math.Abs(s.ThroughputOpsS-24.5/0.125) > 1e-9 {
		t.Errorf("throughput %g, want 196", s.ThroughputOpsS)
	}
}

func TestSummarizeClassOfAPercentileIgnoresOneStretchedOp(t *testing.T) {
	// 200 ops: 150 of class 0 take 10 ms and 50 of class 1 take 100 ms,
	// so p90 (the 180th value) lies deep in class 1. One op of class 0 is
	// then stretched to just above that latency, which makes it the p90
	// sample in place of the op of class 1 one rank below.
	var samples []Sample
	for i := 0; i < 200; i++ {
		sm := Sample{Index: i, Start: time.Duration(i) * time.Millisecond, Latency: 10 * time.Millisecond, OK: true}
		if i%4 == 3 {
			sm.Class, sm.Latency = 1, time.Duration(100+i)*time.Millisecond
		}
		samples = append(samples, sm)
	}
	s := Summarize(samples, time.Second, nil)
	p90 := time.Duration(s.LatencyP90Ms * float64(time.Millisecond))
	if s.P50Class != 0 || s.P90Class != 1 {
		t.Fatalf("classes %d and %d before the stretch, want 0 and 1", s.P50Class, s.P90Class)
	}
	samples[0].Latency = p90 + 1
	s = Summarize(samples, time.Second, nil)
	if got := time.Duration(s.LatencyP90Ms * float64(time.Millisecond)); got != p90+1 {
		t.Fatalf("p90 %v, want the stretched op's %v", got, p90+1)
	}
	if s.P90Class != 1 {
		t.Errorf("p90 class %d with one stretched op of class 0 as its sample, want 1", s.P90Class)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil, 20*time.Second, nil); s.Attempted != 0 || s.ThroughputOpsS != 0 {
		t.Errorf("empty window gave %+v", s)
	}
}

func TestSelfTimesOnAHandMadeTree(t *testing.T) {
	// op [0,100] ── a [10,40] ── a1 [15,25]
	//            ├─ b [30,60]   (overlaps a by 10)
	//            └─ c [90,120]  (runs past its parent)
	spans := []Span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "a1", ID: 2, Parent: 1, Start: 15, End: 25},
		{Name: "b", ID: 3, Parent: 0, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 0, Start: 90, End: 120},
		{Name: "agg", ID: 5, Parent: 3, Start: 30, End: 42, Calls: 6},
	}
	got := SelfTimes(spans)
	want := map[string]SelfStat{
		"op":  {Count: 1, TotalNs: 100, SelfNs: 100 - 50 - 10}, // children cover [10,60] and [90,100]
		"a":   {Count: 1, TotalNs: 30, SelfNs: 20},
		"a1":  {Count: 1, TotalNs: 10, SelfNs: 10},
		"b":   {Count: 1, TotalNs: 30, SelfNs: 18},
		"c":   {Count: 1, TotalNs: 30, SelfNs: 30},
		"agg": {Count: 6, TotalNs: 12, SelfNs: 12},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times\n got %+v\nwant %+v", got, want)
	}
}

func TestRecorderLanesAndNilLane(t *testing.T) {
	var none *Lane
	id := none.Start("x", -1, 0)
	none.End(id)
	none.Aggregate("y", id, 0, 3, time.Millisecond)
	var norec *Recorder
	if norec.Lane(1) != nil {
		t.Fatal("a nil recorder must hand out nil lanes")
	}

	r := NewRecorder(2)
	for c := 0; c < 2; c++ {
		l := r.Lane(c)
		root := l.Start("op", -1, c)
		kid := l.Start("kid", root, c)
		l.End(kid)
		l.Aggregate("many", root, c, 4, 40)
		l.End(root)
	}
	spans := r.Spans()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	for i, s := range spans {
		if s.ID != i {
			t.Errorf("span %d has id %d", i, s.ID)
		}
		if s.Name != "op" && spans[s.Parent].Name != "op" {
			t.Errorf("span %d (%s) hangs under %s", i, s.Name, spans[s.Parent].Name)
		}
		if s.Parent >= 0 && spans[s.Parent].Op != s.Op {
			t.Errorf("span %d and its parent belong to different ops", i)
		}
	}
}

type countedList struct {
	Items []string `json:"items"`
}

func (c *countedList) Count() int { return len(c.Items) }

func TestGoldenLoaderRejectsDamagedFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	if err := WriteGolden(path, &countedList{Items: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	var back countedList
	if err := ReadGolden(path, &back); err != nil || len(back.Items) != 3 {
		t.Fatalf("round trip: %v, %d items", err, len(back.Items))
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"truncated":      whole[:len(whole)/2],
		"cut at the end": whole[:len(whole)-3],
		"empty":          nil,
		"trailing data":  append(append([]byte{}, whole...), []byte("{}")...),
		"entry removed":  []byte(`{"entries": 3, "golden": {"items": ["a", "b"]}}`),
		"no entries":     []byte(`{"entries": 0, "golden": {"items": []}}`),
		"unknown field":  []byte(`{"entries": 1, "golden": {"items": ["a"], "extra": 1}}`),
	}
	for name, b := range damage {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ReadGolden(path, &countedList{}); err == nil {
			t.Errorf("%s golden file was accepted", name)
		}
	}
	if err := ReadGolden(filepath.Join(dir, "missing.json"), &countedList{}); err == nil {
		t.Error("a missing golden file was accepted")
	}
}

func TestStatusKB(t *testing.T) {
	status := []byte("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n")
	if kb, err := statusKB(status, "VmHWM:"); err != nil || kb != 12345 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if _, err := statusKB(status, "VmSwap:"); err == nil {
		t.Error("a missing key was found")
	}
	if mb, err := PeakRSSMB(0); err != nil || mb <= 0 {
		t.Errorf("own peak RSS = %g, %v", mb, err)
	}
	if cpu, err := ProcCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("own CPU = %v, %v", cpu, err)
	}
}
