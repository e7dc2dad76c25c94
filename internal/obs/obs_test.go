package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// ProcessName returns the name set for a Perfetto process, or "".
func (s *Scope) ProcessName(pid int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.procNames[pid]
}

func TestNilScopeIsNoOp(t *testing.T) {
	var s *Scope
	// None of these may panic, allocate state, or return non-zero data.
	s.Span(0, 0, "x", "c", 0, 1)
	s.Instant(0, 0, "x", "c", 0)
	s.Phase("p", 0, 1)
	s.SetProcessName(0, "n")
	s.SetThreadName(0, 0, "t")
	s.BindProc("p0", 0, 0)
	if _, _, ok := s.LookupProc("p0"); ok {
		t.Error("nil scope resolved a proc binding")
	}
	if s.Enabled() {
		t.Error("nil scope reports enabled")
	}
	if got := len(s.Spans()); got != 0 {
		t.Errorf("nil scope has %d spans", got)
	}
	if s.Registry() != nil {
		t.Error("nil scope returned a registry")
	}
	// Nil registry chains stay nil-safe too.
	s.Registry().Counter("c").Add(1)
	s.Registry().Gauge("g").SetMax(2)
	s.Registry().Histogram("h", WallBuckets()).Observe(3)
	if v := s.Registry().FindCounter("c"); v != 0 {
		t.Errorf("nil registry counter = %v", v)
	}
}

func TestScopeSpanCapAndDropCount(t *testing.T) {
	s := New(Options{MaxSpans: 2})
	for i := 0; i < 5; i++ {
		s.Span(0, 0, "op", "c", float64(i), float64(i+1))
	}
	if got := len(s.Spans()); got != 2 {
		t.Errorf("kept %d spans, want cap of 2", got)
	}
	if got := s.DroppedSpans(); got != 3 {
		t.Errorf("dropped %d spans, want 3", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bytes", L("level", "node"))
	c.Add(10)
	c.Add(-5) // ignored: counters are monotone
	c.AddInt(2)
	if got := c.Value(); got != 12 {
		t.Errorf("counter = %v, want 12", got)
	}
	if r.Counter("bytes", L("level", "node")) != c {
		t.Error("same name+labels did not return the same counter")
	}
	if r.Counter("bytes", L("level", "core")) == c {
		t.Error("different labels returned the same counter")
	}

	g := r.Gauge("depth")
	g.SetMax(3)
	g.SetMax(1) // SetMax keeps the max
	if got := g.Value(); got != 3 {
		t.Errorf("gauge after SetMax = %v, want 3", got)
	}
	g.Set(1)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge after Set = %v, want 1", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.n != 4 || h.inf != 1 {
		t.Errorf("histogram n=%d inf=%d, want 4 and 1", h.n, h.inf)
	}
	if h.counts[0] != 1 || h.counts[1] != 1 || h.counts[2] != 1 {
		t.Errorf("bucket counts = %v, want one per bucket", h.counts)
	}
	if h.sum != 555.5 {
		t.Errorf("histogram sum = %v, want 555.5", h.sum)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(10, -2, 4)
	want := []float64{0.01, 0.1, 1, 10}
	if len(b) != len(want) {
		t.Fatalf("got %v", b)
	}
	for i := range b {
		if diff := b[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("buckets not ascending: %v", b)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(1)
	r.Counter("a", L("k", "2")).Add(1)
	r.Counter("a", L("k", "1")).Add(1)
	r.Gauge("m").Set(5)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 4 {
		t.Fatalf("snapshot has %d points, want 4", len(s1))
	}
	for i := range s1 {
		if s1[i].key() != s2[i].key() {
			t.Errorf("snapshot order unstable at %d: %q vs %q", i, s1[i].key(), s2[i].key())
		}
	}
	if s1[0].Name != "a" || s1[2].Name != "m" || s1[3].Name != "z" {
		t.Errorf("snapshot not sorted: %v %v %v %v", s1[0].Name, s1[1].Name, s1[2].Name, s1[3].Name)
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("coll_seconds", []float64{1, 10}, L("op", "Alltoall"))
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE coll_seconds histogram",
		`coll_seconds_bucket{le="1",op="Alltoall"} 1`,
		`coll_seconds_bucket{le="10",op="Alltoall"} 2`,
		`coll_seconds_bucket{le="+Inf",op="Alltoall"} 3`,
		`coll_seconds_sum{op="Alltoall"} 55.5`,
		`coll_seconds_count{op="Alltoall"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("k", `va"lue`)).Add(1)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `""`) {
		t.Errorf("CSV did not escape the embedded quote:\n%s", buf.String())
	}
}

func TestWriteTraceJSONEmptyScope(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty-scope trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty scope produced %d events", len(doc.TraceEvents))
	}
}

func TestSummaryOnEmptyScope(t *testing.T) {
	if out := Summary(nil, 5); out == "" {
		t.Error("Summary(nil) should still render a header, not an empty string")
	}
	s := New(Options{})
	if out := Summary(s, 5); strings.Contains(out, "NaN") {
		t.Errorf("Summary of empty scope contains NaN:\n%s", out)
	}
}

func TestPhaseRecordsOnDriverTrack(t *testing.T) {
	s := New(Options{})
	s.Phase("warmup", 1, 2, Arg{Key: "iters", Val: 3})
	spans := s.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	sp := spans[0]
	if sp.PID != DriverPID || sp.Cat != "phase" || sp.Name != "warmup" {
		t.Errorf("phase span = %+v", sp)
	}
}
