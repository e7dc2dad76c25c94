package obs

import (
	"strings"
	"testing"
)

// TestTraceRoundTrip writes a populated scope out and reads it back: the
// spans, instants, track names, and metadata must survive.
func TestTraceRoundTrip(t *testing.T) {
	src := New(Options{})
	src.SetProcessName(1, "server")
	src.SetThreadName(1, 3, "trace deadbeef")
	src.SetMeta("run", "abc")
	src.Span(1, 3, "http /v1/map", "rt", 0.5, 0.75, Arg{Key: "http_status", Val: 200})
	src.Span(1, 3, "cache.lookup", "rt", 0.51, 0.52, Arg{Key: "hit", Val: 1})
	src.Instant(1, 3, "mark", "rt", 0.6)

	var buf strings.Builder
	if err := WriteTraceJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	spans := got.Spans()
	if len(spans) != 2 {
		t.Fatalf("round trip kept %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	h := byName["http /v1/map"]
	if h.PID != 1 || h.TID != 3 || h.Cat != "rt" {
		t.Fatalf("span identity lost: %+v", h)
	}
	if h.Start < 0.4999 || h.Start > 0.5001 || h.End < 0.7499 || h.End > 0.7501 {
		t.Fatalf("span times drifted: %+v", h)
	}
	if len(h.Args) != 1 || h.Args[0].Key != "http_status" || h.Args[0].Val != 200 {
		t.Fatalf("span args lost: %+v", h.Args)
	}
	if len(got.Instants()) != 1 || got.Instants()[0].Name != "mark" {
		t.Fatalf("instants lost: %+v", got.Instants())
	}
	if got.Meta()["run"] != "abc" {
		t.Fatalf("metadata lost: %v", got.Meta())
	}

	// Track names survive: re-exporting mentions both names.
	var again strings.Builder
	if err := WriteTraceJSON(&again, got); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"server"`, `"trace deadbeef"`} {
		if !strings.Contains(again.String(), want) {
			t.Fatalf("re-export lost track name %s:\n%s", want, again.String())
		}
	}

	// Summary works on an imported scope — the mrtrace -open path.
	if s := Summary(got, 5); !strings.Contains(s, "http /v1/map") {
		t.Fatalf("summary of imported scope missing span:\n%s", s)
	}
}

// TestTraceRoundTripKeepsDropCount: spans the cap discarded are counted
// in the export, and the imported scope's summary still reports them.
func TestTraceRoundTripKeepsDropCount(t *testing.T) {
	src := New(Options{MaxSpans: 2})
	for i := 0; i < 3; i++ {
		src.Span(0, 0, "op", "c", float64(i), float64(i+1))
	}
	var buf strings.Builder
	if err := WriteTraceJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"spans_dropped":"1"`) {
		t.Fatalf("export lost the drop count:\n%s", buf.String())
	}
	got, err := ReadTraceJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if d := got.DroppedSpans(); d != 1 {
		t.Fatalf("imported scope dropped %d spans, want 1", d)
	}
	if _, ok := got.Meta()["spans_dropped"]; ok {
		t.Fatalf("drop count imported as run metadata: %v", got.Meta())
	}
	if s := Summary(got, 5); !strings.Contains(s, "(1 spans dropped") {
		t.Fatalf("summary of imported scope lost the drop count:\n%s", s)
	}
}

func TestReadTraceJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadTraceJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadTraceJSONSkipsUnknownPhases(t *testing.T) {
	in := `{"traceEvents":[
		{"ph":"B","ts":0,"pid":1,"tid":1,"name":"begin"},
		{"ph":"X","ts":1000,"dur":500,"pid":1,"tid":1,"name":"op","args":{"n":3,"label":"text"}}
	],"displayTimeUnit":"ms"}`
	sc, err := ReadTraceJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	spans := sc.Spans()
	if len(spans) != 1 || spans[0].Name != "op" {
		t.Fatalf("spans %+v, want just op", spans)
	}
	// Non-numeric args are dropped, numeric kept.
	if len(spans[0].Args) != 1 || spans[0].Args[0] != (Arg{Key: "n", Val: 3}) {
		t.Fatalf("args %+v, want [n=3]", spans[0].Args)
	}
}
