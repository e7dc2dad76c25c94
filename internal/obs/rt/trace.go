// Package rt is the wall-clock runtime-telemetry layer of the serving
// stack, complementing internal/obs's virtual-time instrumentation: a
// lightweight distributed-tracing span implementation with W3C
// traceparent propagation, a runtime-metrics sampler (goroutines, heap,
// GC pauses, file descriptors), a trace-correlated log/slog handler, and
// rolling multi-window SLO burn-rate tracking.
//
// Completed traces are committed into an obs.Scope as ordinary spans —
// wall-clock seconds since the tracer's epoch stand in for virtual
// seconds — so the PR 1 Perfetto writer exports server traces unchanged
// and mrtrace opens them.
//
// Sampling is head-based: the decision is taken when the trace enters the
// process (honouring an upstream traceparent's sampled flag, otherwise a
// configured ratio) and inherited by every child span. One override
// exists: a trace that records an error is committed even when the head
// decision said drop, so failures always leave a trace behind.
//
// Every entry point is nil-safe, mirroring internal/obs: a nil *Tracer or
// *Span is a no-op, so instrumented code carries no "if tracing" guards.
package rt

import (
	"context"
	"encoding/hex"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// ServerPID is the Perfetto "process" id server-side traces commit under;
// each committed trace gets its own thread track within it.
const ServerPID = 1

// TraceID is the 16-byte W3C trace id.
type TraceID [16]byte

// SpanID is the 8-byte W3C span id.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String returns the lowercase-hex rendering used on the wire.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the lowercase-hex rendering used on the wire.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// Options tunes a Tracer. The zero value picks production defaults.
type Options struct {
	// Service names the Perfetto process the traces commit under
	// (default "server").
	Service string
	// SampleRatio is the head-sampling probability for traces without an
	// upstream sampling decision: 0 defaults to 1 (sample everything),
	// negative disables sampling (error traces are still committed).
	SampleRatio float64
	// Now is the clock (default time.Now). Tests inject a fake.
	Now func() time.Time
	// Rand yields randomness for ids and sampling decisions (default: a
	// locked math/rand source seeded from the clock).
	Rand func() uint64
}

// Tracer creates and commits request-scoped spans.
type Tracer struct {
	service string
	ratio   float64
	scope   *obs.Scope
	now     func() time.Time
	epoch   time.Time

	mu      sync.Mutex
	rand    func() uint64
	nextTID int
}

// NewTracer returns a Tracer with the given options.
func NewTracer(opts Options) *Tracer {
	if opts.Service == "" {
		opts.Service = "server"
	}
	if opts.SampleRatio == 0 {
		opts.SampleRatio = 1
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	t := &Tracer{
		service: opts.Service,
		ratio:   opts.SampleRatio,
		scope:   obs.New(obs.Options{}),
		now:     opts.Now,
		epoch:   opts.Now(),
		rand:    opts.Rand,
		nextTID: 1,
	}
	if t.rand == nil {
		rng := rand.New(rand.NewSource(opts.Now().UnixNano()))
		t.rand = func() uint64 { return rng.Uint64() }
	}
	t.scope.SetProcessName(ServerPID, opts.Service)
	return t
}

// Scope returns the obs.Scope committed traces land in; export it with
// obs.WriteTraceFile to get a Perfetto JSON file mrtrace can open.
func (t *Tracer) Scope() *obs.Scope {
	if t == nil {
		return nil
	}
	return t.scope
}

// random returns a nonzero random uint64 under the tracer lock.
func (t *Tracer) randomLocked() uint64 {
	for {
		if v := t.rand(); v != 0 {
			return v
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id TraceID
	hi, lo := t.randomLocked(), t.randomLocked()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (56 - 8*i))
		id[8+i] = byte(lo >> (56 - 8*i))
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id SpanID
	v := t.randomLocked()
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (56 - 8*i))
	}
	return id
}

// sampleHead takes the head decision for a trace without an upstream one.
func (t *Tracer) sampleHead() bool {
	if t.ratio < 0 {
		return false
	}
	if t.ratio >= 1 {
		return true
	}
	t.mu.Lock()
	v := t.rand()
	t.mu.Unlock()
	return float64(v>>11)/(1<<53) < t.ratio
}

// traceBuf accumulates one trace's completed spans until the local root
// ends and the commit decision is settled.
type traceBuf struct {
	id      TraceID
	sampled bool

	mu        sync.Mutex
	spans     []obs.Span
	instants  []obs.Instant
	errored   bool
	committed bool
	dropped   bool
	tid       int // thread track, assigned at commit
}

// Span is one in-flight operation of a trace. A nil Span is a no-op.
type Span struct {
	tracer *Tracer
	buf    *traceBuf
	id     SpanID
	parent SpanID
	root   bool // local root: commits the trace on End
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []obs.Arg
	ended bool
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span. Use it to
// re-attach a trace to a context detached from the request (e.g. the
// background context a singleflight evaluation runs on).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartRequest begins the local root span of a request-scoped trace,
// continuing the trace described by the traceparent header when one is
// present (and honouring its sampling decision), otherwise starting a
// fresh trace under the tracer's head-sampling ratio. The returned
// context carries the span for StartSpan calls downstream.
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var (
		traceID TraceID
		parent  SpanID
		sampled bool
	)
	if tid, pid, flags, ok := ParseTraceparent(traceparent); ok {
		traceID, parent, sampled = tid, pid, flags&FlagSampled != 0
	} else {
		traceID, sampled = t.newTraceID(), t.sampleHead()
	}
	buf := &traceBuf{id: traceID, sampled: sampled}
	sp := &Span{
		tracer: t,
		buf:    buf,
		id:     t.newSpanID(),
		parent: parent,
		root:   true,
		name:   name,
		start:  t.now(),
	}
	return ContextWithSpan(ctx, sp), sp
}

// StartSpan begins a child of the context's current span. Without a
// current span it returns (ctx, nil): a no-op span, zero allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tracer
	sp := &Span{
		tracer: t,
		buf:    parent.buf,
		id:     t.newSpanID(),
		parent: parent.id,
		name:   name,
		start:  t.now(),
	}
	return ContextWithSpan(ctx, sp), sp
}

// TraceID returns the span's trace id hex, or "" on nil.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.buf.id.String()
}

// SpanID returns the span's id hex, or "" on nil.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.id.String()
}

// Traceparent renders the header value propagating this span downstream.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	var flags byte
	if s.buf.sampled {
		flags = FlagSampled
	}
	return FormatTraceparent(s.buf.id, s.id, flags)
}

// SetAttr attaches one integer annotation exported into the Perfetto args.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, obs.Arg{Key: key, Val: v})
	s.mu.Unlock()
}

// Event records a zero-duration marker at the current instant on the
// span's trace track (a Perfetto instant event) — a point-in-time stream
// like the advisor's search_progress events. Events follow the trace's
// head-sampling commit decision exactly like spans: buffered until the
// root ends, then flushed or dropped with the rest of the trace.
func (s *Span) Event(name string, args ...obs.Arg) {
	if s == nil {
		return
	}
	t := s.tracer
	in := obs.Instant{
		PID:  ServerPID,
		Name: name,
		Cat:  "rt",
		At:   t.now().Sub(t.epoch).Seconds(),
		Args: args,
	}
	b := s.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.dropped:
	case b.committed:
		t.scope.Instant(in.PID, b.tid, in.Name, in.Cat, in.At, in.Args...)
	default:
		b.instants = append(b.instants, in)
	}
}

// SetError marks the span (and therefore its whole trace) as failed: the
// trace is committed even if the head decision said drop.
func (s *Span) SetError() {
	if s == nil {
		return
	}
	s.SetAttr("error", 1)
	s.buf.mu.Lock()
	s.buf.errored = true
	s.buf.mu.Unlock()
}

// End completes the span. Ending the request's root span settles the
// trace: buffered spans are committed to the scope when the trace is
// sampled or errored, and dropped otherwise. Spans ended after the root
// (a detached evaluation outliving its requester) join the committed
// trace directly.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	t := s.tracer
	end := t.now()
	span := obs.Span{
		PID:   ServerPID,
		Name:  s.name,
		Cat:   "rt",
		Start: s.start.Sub(t.epoch).Seconds(),
		End:   end.Sub(t.epoch).Seconds(),
		Args:  attrs,
	}

	b := s.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.dropped:
	case b.committed:
		span.TID = b.tid
		t.scope.Span(span.PID, span.TID, span.Name, span.Cat, span.Start, span.End, span.Args...)
	default:
		b.spans = append(b.spans, span)
		if s.root {
			if b.sampled || b.errored {
				t.commit(b)
			} else {
				b.dropped = true
				b.spans = nil
				b.instants = nil
			}
		}
	}
}

// ClientTraceparent builds a fresh sampled version-00 traceparent from
// the caller's randomness, returning the header value and its trace id
// hex — the client half of trace propagation (mrload injection).
func ClientTraceparent(rng *rand.Rand) (header, traceID string) {
	var tid TraceID
	var sid SpanID
	for tid.IsZero() {
		hi, lo := rng.Uint64(), rng.Uint64()
		for i := 0; i < 8; i++ {
			tid[i] = byte(hi >> (56 - 8*i))
			tid[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	for sid.IsZero() {
		v := rng.Uint64()
		for i := 0; i < 8; i++ {
			sid[i] = byte(v >> (56 - 8*i))
		}
	}
	return FormatTraceparent(tid, sid, FlagSampled), tid.String()
}

// commit assigns the trace a thread track and flushes its buffered spans.
// Called with b.mu held.
func (t *Tracer) commit(b *traceBuf) {
	t.mu.Lock()
	b.tid = t.nextTID
	t.nextTID++
	t.mu.Unlock()
	b.committed = true
	t.scope.SetThreadName(ServerPID, b.tid, "trace "+b.id.String())
	for _, sp := range b.spans {
		t.scope.Span(sp.PID, b.tid, sp.Name, sp.Cat, sp.Start, sp.End, sp.Args...)
	}
	for _, in := range b.instants {
		t.scope.Instant(in.PID, b.tid, in.Name, in.Cat, in.At, in.Args...)
	}
	b.spans = nil
	b.instants = nil
}
