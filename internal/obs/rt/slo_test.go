package rt

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// sloClock is a settable fake clock.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time { return c.t }

func testSLO(clk *sloClock) *SLOTracker {
	return NewSLOTracker(SLOOptions{Now: clk.now})
}

func window(t *testing.T, rep SLOReport, endpoint, window string) WindowSLO {
	t.Helper()
	for _, ep := range rep.Endpoints {
		if ep.Endpoint != endpoint {
			continue
		}
		for _, w := range ep.Windows {
			if w.Window == window {
				return w
			}
		}
	}
	t.Fatalf("window %s/%s not in report %+v", endpoint, window, rep)
	return WindowSLO{}
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %g, want %g", name, got, want)
	}
}

// TestBurnRateHandComputed drives known traffic through the windows and
// checks the burn rates against hand-computed values.
func TestBurnRateHandComputed(t *testing.T) {
	clk := &sloClock{t: time.Unix(10_000, 0)}
	tr := testSLO(clk)

	// Seconds 10000..10009: 10 req/s, 1 error/s, 2 slow/s on "advise".
	for s := 0; s < 10; s++ {
		clk.t = time.Unix(10_000+int64(s), 0)
		for i := 0; i < 10; i++ {
			code, lat := 200, 10*time.Millisecond
			if i == 0 {
				code = 500
			}
			if i < 2 {
				lat = 300 * time.Millisecond
			}
			tr.Record("advise", code, lat)
		}
	}
	clk.t = time.Unix(10_009, 0)
	rep := tr.Report()

	// 1m window: 100 requests, 10 errors, 20 slow.
	w := window(t, rep, "advise", "1m0s")
	if w.Requests != 100 || w.Errors != 10 || w.Slow != 20 {
		t.Fatalf("1m stats %+v, want 100/10/20", w)
	}
	// error rate 0.1 over budget 0.001 → burn 100.
	approx(t, "availability burn 1m", w.AvailabilityBurn, 100)
	// slow rate 0.2 over budget 0.01 → burn 20.
	approx(t, "latency burn 1m", w.LatencyBurn, 20)
	approx(t, "availability 1m", w.Availability, 0.9)

	// The same 100 requests sit in the wider windows → same burn rates.
	w5 := window(t, rep, "advise", "5m0s")
	approx(t, "availability burn 5m", w5.AvailabilityBurn, 100)

	// 60 seconds later the 1m window is empty, the 5m window still burns.
	clk.t = time.Unix(10_070, 0)
	rep = tr.Report()
	w = window(t, rep, "advise", "1m0s")
	if w.Requests != 0 {
		t.Fatalf("1m window still holds %d requests after rollover", w.Requests)
	}
	approx(t, "empty-window availability burn", w.AvailabilityBurn, 0)
	approx(t, "empty-window latency burn", w.LatencyBurn, 0)
	approx(t, "empty-window availability", w.Availability, 1)
	w5 = window(t, rep, "advise", "5m0s")
	if w5.Requests != 100 {
		t.Fatalf("5m window lost requests: %d", w5.Requests)
	}
	approx(t, "availability burn 5m after rollover", w5.AvailabilityBurn, 100)
}

// TestEmptyWindowReport: a tracker that never recorded reports no
// endpoints, and FastBurning is false.
func TestEmptyWindowReport(t *testing.T) {
	clk := &sloClock{t: time.Unix(10_000, 0)}
	tr := testSLO(clk)
	rep := tr.Report()
	if len(rep.Endpoints) != 0 || rep.FastBurning {
		t.Fatalf("empty tracker report %+v", rep)
	}
	if tr.FastBurning() {
		t.Fatal("empty tracker fast-burning")
	}
}

// TestClockSkew: the wall clock stepping backwards must neither panic nor
// resurrect expired cells; skewed samples attribute to the newest second
// already seen.
func TestClockSkew(t *testing.T) {
	clk := &sloClock{t: time.Unix(20_000, 0)}
	tr := testSLO(clk)
	tr.Record("map", 200, time.Millisecond)
	clk.t = time.Unix(19_000, 0) // NTP step: 1000 s backwards
	tr.Record("map", 500, time.Millisecond)
	tr.Record("map", 200, time.Millisecond)
	rep := tr.Report()
	w := window(t, rep, "map", "1m0s")
	if w.Requests != 3 || w.Errors != 1 {
		t.Fatalf("after skew: %d requests %d errors, want 3 and 1", w.Requests, w.Errors)
	}
	// Time resuming forward keeps working.
	clk.t = time.Unix(20_030, 0)
	tr.Record("map", 200, time.Millisecond)
	w = window(t, rep, "map", "1m0s")
	if got := tr.Report(); window(t, got, "map", "1m0s").Requests != 4 {
		t.Fatalf("post-skew recording lost samples: %+v", got)
	}
}

// TestFastBurning: the page condition needs the burn in both short
// windows; an old burst outside the 1m window must not page.
func TestFastBurning(t *testing.T) {
	clk := &sloClock{t: time.Unix(30_000, 0)}
	tr := testSLO(clk)
	// 100% errors, burn 1000 ≫ 14 in both windows.
	for i := 0; i < 20; i++ {
		tr.Record("advise", 503, time.Millisecond)
	}
	if !tr.FastBurning() {
		t.Fatal("total outage not fast-burning")
	}
	// 90 seconds later the 1m window is clean → not fast-burning even
	// though the 5m window still carries the errors.
	clk.t = time.Unix(30_090, 0)
	if tr.FastBurning() {
		t.Fatal("old burst outside the short window still pages")
	}
	// Healthy traffic never burns.
	tr2 := testSLO(clk)
	for i := 0; i < 1000; i++ {
		tr2.Record("map", 200, time.Millisecond)
	}
	if tr2.FastBurning() {
		t.Fatal("healthy traffic fast-burning")
	}
}

// TestLatencyOnlyFastBurn: slow-but-successful traffic pages via the
// latency objective.
func TestLatencyOnlyFastBurn(t *testing.T) {
	clk := &sloClock{t: time.Unix(40_000, 0)}
	tr := testSLO(clk)
	for i := 0; i < 50; i++ {
		tr.Record("advise", 200, time.Second) // all over the 250ms threshold
	}
	if !tr.FastBurning() {
		t.Fatal("100% slow traffic not fast-burning (burn 100 vs budget 0.01)")
	}
}

func TestPublishGauges(t *testing.T) {
	clk := &sloClock{t: time.Unix(50_000, 0)}
	tr := testSLO(clk)
	for i := 0; i < 10; i++ {
		tr.Record("advise", 503, time.Millisecond)
	}
	reg := obs.NewRegistry()
	tr.Publish(reg)
	got := reg.FindGauge("slo_burn_rate",
		obs.L("endpoint", "advise"), obs.L("slo", "availability"), obs.L("window", "1m0s"))
	approx(t, "published burn gauge", got, 1000)
	approx(t, "fast-burning flag", reg.FindGauge("slo_fast_burning"), 1)
}
