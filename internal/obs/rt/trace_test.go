package rt

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock yields strictly increasing timestamps one millisecond apart,
// to any number of goroutines at once.
type fakeClock struct {
	start time.Time
	ticks atomic.Int64
}

func (c *fakeClock) now() time.Time {
	return c.start.Add(time.Duration(c.ticks.Add(1)) * time.Millisecond)
}

func testTracer(ratio float64) *Tracer {
	clk := &fakeClock{start: time.Unix(1000, 0)}
	rng := rand.New(rand.NewSource(42))
	return NewTracer(Options{
		Service:     "test",
		SampleRatio: ratio,
		Now:         clk.now,
		Rand:        rng.Uint64,
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	sid := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	h := FormatTraceparent(tid, sid, FlagSampled)
	want := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if h != want {
		t.Fatalf("FormatTraceparent = %q, want %q", h, want)
	}
	gt, gs, flags, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid || flags != FlagSampled {
		t.Fatalf("round trip failed: %v %v %v %v", gt, gs, flags, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 must be exactly 4 fields
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // version ff forbidden
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",       // bad flags
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad separator
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad version hex
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01xtail",  // future version, bad tail separator
	}
	for _, s := range bad {
		if _, _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	// A future version with a well-formed extra field is accepted.
	if _, _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more"); !ok {
		t.Error("future-version traceparent with extra field rejected")
	}
}

func TestSpanNestingAndCommit(t *testing.T) {
	tr := testTracer(1)
	ctx, root := tr.StartRequest(context.Background(), "http /v1/x", "")
	if root.TraceID() == "" || !root.buf.sampled {
		t.Fatalf("root not sampled: id=%q", root.TraceID())
	}
	cctx, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("hit", 1)
	child.End()
	_, grand := StartSpan(cctx, "never-used")
	_ = grand
	_, sibling := StartSpan(ctx, "advisor.rank")
	sibling.End()
	// Nothing committed until the root ends.
	if n := len(tr.Scope().Spans()); n != 0 {
		t.Fatalf("%d spans committed before root end", n)
	}
	root.End()
	spans := tr.Scope().Spans()
	if len(spans) != 3 {
		t.Fatalf("committed %d spans, want 3 (grand never ended)", len(spans))
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
		if sp.PID != ServerPID {
			t.Fatalf("span %q pid %d, want %d", sp.Name, sp.PID, ServerPID)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %q ends before it starts", sp.Name)
		}
	}
	for _, want := range []string{"http /v1/x", "cache.lookup", "advisor.rank"} {
		if !names[want] {
			t.Fatalf("committed spans missing %q (have %v)", want, names)
		}
	}
}

func TestUnsampledTraceDropped(t *testing.T) {
	tr := testTracer(-1) // never head-sample
	ctx, root := tr.StartRequest(context.Background(), "http /v1/x", "")
	if root.buf.sampled {
		t.Fatal("ratio<0 sampled a trace")
	}
	_, child := StartSpan(ctx, "cache.lookup")
	child.End()
	root.End()
	if n := len(tr.Scope().Spans()); n != 0 {
		t.Fatalf("unsampled trace committed %d spans", n)
	}
}

func TestErrorOverridesSamplingDecision(t *testing.T) {
	tr := testTracer(-1)
	ctx, root := tr.StartRequest(context.Background(), "http /v1/x", "")
	_, child := StartSpan(ctx, "evaluate")
	child.SetError()
	child.End()
	root.End()
	spans := tr.Scope().Spans()
	if len(spans) != 2 {
		t.Fatalf("errored trace committed %d spans, want 2", len(spans))
	}
	var foundErr bool
	for _, sp := range spans {
		for _, a := range sp.Args {
			if a.Key == "error" && a.Val == 1 {
				foundErr = true
			}
		}
	}
	if !foundErr {
		t.Fatal("error attribute missing from committed spans")
	}
}

func TestUpstreamTraceparentHonoured(t *testing.T) {
	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := testTracer(-1) // would drop on its own — upstream says sample
	ctx, root := tr.StartRequest(context.Background(), "http /v1/x", upstream)
	if got := root.TraceID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %q does not continue the upstream trace", got)
	}
	if !root.buf.sampled {
		t.Fatal("upstream sampled flag ignored")
	}
	// The span injected downstream carries the same trace id, a new span id.
	tp := root.Traceparent()
	gt, gs, flags, ok := ParseTraceparent(tp)
	if !ok || gt.String() != root.TraceID() || gs.String() != root.SpanID() || flags&FlagSampled == 0 {
		t.Fatalf("downstream traceparent %q inconsistent", tp)
	}
	_ = ctx
	root.End()
	if n := len(tr.Scope().Spans()); n != 1 {
		t.Fatalf("committed %d spans, want 1", n)
	}

	// Unsampled upstream flag is honoured too (no error involved).
	tr2 := testTracer(1) // would sample on its own — upstream says drop
	_, root2 := tr2.StartRequest(context.Background(), "http /v1/x",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if root2.buf.sampled {
		t.Fatal("upstream unsampled flag ignored")
	}
	root2.End()
	if n := len(tr2.Scope().Spans()); n != 0 {
		t.Fatalf("unsampled upstream trace committed %d spans", n)
	}
}

func TestLateSpanJoinsCommittedTrace(t *testing.T) {
	tr := testTracer(1)
	ctx, root := tr.StartRequest(context.Background(), "http /v1/x", "")
	_, late := StartSpan(ctx, "detached.eval")
	root.End()
	late.End() // after the root committed
	spans := tr.Scope().Spans()
	if len(spans) != 2 {
		t.Fatalf("committed %d spans, want root + late", len(spans))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), "x", "")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	_, sp2 := StartSpan(ctx, "child")
	sp2.SetAttr("k", 1)
	sp2.SetError()
	sp2.End()
	if sp2.TraceID() != "" || sp2.SpanID() != "" || sp2.Traceparent() != "" {
		t.Fatal("nil span leaked state")
	}
	var st *SLOTracker
	st.Record("x", 200, 0)
	if st.FastBurning() {
		t.Fatal("nil tracker burning")
	}
	st.Publish(obs.NewRegistry())
	var sm *Sampler
	sm.SampleOnce()
	sm.Stop()
}

func TestClientTraceparent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, id := ClientTraceparent(rng)
	gt, _, flags, ok := ParseTraceparent(h)
	if !ok || flags&FlagSampled == 0 {
		t.Fatalf("generated traceparent %q invalid", h)
	}
	if gt.String() != id {
		t.Fatalf("returned trace id %q != header's %q", id, gt.String())
	}
}

func TestCommittedTraceExportsAsPerfettoJSON(t *testing.T) {
	tr := testTracer(1)
	ctx, root := tr.StartRequest(context.Background(), "http /v1/advise", "")
	_, child := StartSpan(ctx, "singleflight")
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, tr.Scope()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"http /v1/advise"`, `"singleflight"`, "trace " + root.TraceID(), `"test"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace JSON missing %s:\n%s", want, out)
		}
	}
}
