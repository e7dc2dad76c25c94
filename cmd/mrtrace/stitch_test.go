// The -stitch mode end to end on files: two tracer exports sharing a
// trace id round-trip through WriteTraceFile, merge into stitched.json,
// and the printed join lines name both inputs on the shared id.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/rt"
)

func TestStitchTracesFiles(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(2000, 0)
	step := func() time.Time { now = now.Add(5 * time.Millisecond); return now }

	gate := rt.NewTracer(rt.Options{Service: "mrgate", Now: step})
	ctx, root := gate.StartRequest(context.Background(), "gate /v1/advise", "")
	tp := root.Traceparent()
	_, proxy := rt.StartSpan(ctx, "proxy r0")
	proxy.End()
	root.End()

	rep := rt.NewTracer(rt.Options{Service: "mrserved", Now: step})
	_, rroot := rep.StartRequest(context.Background(), "http /v1/advise", tp)
	rroot.End()

	gatePath := filepath.Join(dir, "mrgate-trace.json")
	repPath := filepath.Join(dir, "mrserved-0-trace.json")
	if err := obs.WriteTraceFile(gatePath, gate.Scope()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTraceFile(repPath, rep.Scope()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := stitchTraces(&buf, strings.Split(gatePath+" , "+repPath, ","), filepath.Join(dir, "out")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	id, _, _, ok := rt.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("bad traceparent %q", tp)
	}
	joinLine := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "trace "+id.String()+":") {
			joinLine = l
		}
	}
	if joinLine == "" {
		t.Fatalf("no join line for trace %s in output:\n%s", id, out)
	}
	if !strings.Contains(joinLine, "mrgate-trace=2") || !strings.Contains(joinLine, "mrserved-0-trace=1") {
		t.Fatalf("join line %q missing per-input span counts", joinLine)
	}
	if !strings.Contains(out, "1 traces, 1 cross-process") {
		t.Fatalf("summary line missing:\n%s", out)
	}

	stitchedPath := filepath.Join(dir, "out", "stitched.json")
	stitched, err := obs.ReadTraceFile(stitchedPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stitched.Spans()); got != 3 {
		t.Fatalf("stitched.json has %d spans, want 3", got)
	}
	raw, err := os.ReadFile(stitchedPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	procs := map[int]any{}
	for _, ev := range trace.TraceEvents {
		if ev.Name == "process_name" {
			procs[ev.PID] = ev.Args["name"]
		}
	}
	if procs[1] != "mrgate-trace" || procs[2] != "mrserved-0-trace" {
		t.Fatalf("process names %v, want pid 1 mrgate-trace and pid 2 mrserved-0-trace", procs)
	}
}

func TestStitchTracesNeedsTwoFiles(t *testing.T) {
	var buf bytes.Buffer
	if err := stitchTraces(&buf, []string{"only.json", " "}, t.TempDir()); err == nil {
		t.Fatal("one input accepted")
	}
}
