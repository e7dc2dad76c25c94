// Package obs is the unified observability layer of the simulation stack:
// span tracing in *virtual* sim time, a metric registry holding counters,
// gauges and fixed log-bucket histograms, and exporters for Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing), Prometheus
// text exposition, and CSV.
//
// Spans and the metrics of a simulated run are measured against the
// discrete-event engine's virtual clock (phase durations, messages and
// bytes moved per hierarchy level, events fired), so two identical runs
// export identical bytes.
//
// Every entry point is nil-safe: a nil *Scope, *Counter, *Gauge or
// *Histogram is a no-op, so instrumented code needs no "if enabled" guard
// beyond the nil checks it gets for free, and the disabled path performs
// no allocations.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// defaultMaxSpans is Options.MaxSpans when it is 0.
const defaultMaxSpans = 1 << 20

// DriverPID is the Perfetto "process" id reserved for driver-level phase
// spans (reorder, split, warmup, timed iterations) that do not belong to
// any simulated node. Simulated nodes use their node index as pid.
const DriverPID = 1 << 20

// Arg is one key/value annotation attached to a span.
type Arg struct {
	Key string
	Val int64
}

// Bool is a flag's 0/1 encoding for integer-valued args and gauges.
func Bool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Span is one completed operation on one track: a Perfetto "complete"
// event. Times are virtual seconds.
type Span struct {
	PID   int // simulated node (or DriverPID)
	TID   int // world rank within the node's process group
	Name  string
	Cat   string
	Start float64
	End   float64
	Args  []Arg
}

// Instant is a zero-duration marker event.
type Instant struct {
	PID  int
	TID  int
	Name string
	Cat  string
	At   float64
	Args []Arg
}

// Options tunes a Scope.
type Options struct {
	// MaxSpans caps the span buffer and, separately, the instant buffer;
	// further events are counted but not stored, and the count is
	// exported as spans_dropped in the trace's otherData. 0 means the
	// default of 1<<20, the fixed cap every command runs with.
	MaxSpans int
	// P2PEvents records one instant event per point-to-point message
	// (including the messages collective algorithms issue). High volume;
	// intended for small runs inspected in Perfetto.
	P2PEvents bool
	// BlockSpans records one "blocked" span per process park/wake pair,
	// showing when each rank sat idle. High volume.
	BlockSpans bool
}

// Scope is one run's observability context: a span buffer, track naming
// metadata, and a metric registry. All methods are safe for concurrent
// use and all are no-ops on a nil receiver.
type Scope struct {
	opts Options
	reg  *Registry

	mu          sync.Mutex
	spans       []Span
	instants    []Instant
	dropped     int64
	procNames   map[int]string
	threadNames map[[2]int]string
	procBind    map[string][2]int // sim process name -> (pid, tid)
	meta        map[string]string // run metadata exported with traces/metrics
}

// New returns an enabled Scope.
func New(opts Options) *Scope {
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = defaultMaxSpans
	}
	return &Scope{
		opts:        opts,
		reg:         NewRegistry(),
		procNames:   map[int]string{},
		threadNames: map[[2]int]string{},
		procBind:    map[string][2]int{},
		meta:        map[string]string{},
	}
}

// SetMeta records one key/value of run metadata. Metadata is embedded in
// the Perfetto export's otherData block so a trace can be attributed to its
// run's exact configuration.
func (s *Scope) SetMeta(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.meta[key] = value
	s.mu.Unlock()
}

// Meta returns a copy of the run metadata.
func (s *Scope) Meta() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.meta))
	for k, v := range s.meta {
		out[k] = v
	}
	return out
}

// Enabled reports whether the scope records anything.
func (s *Scope) Enabled() bool { return s != nil }

// Options returns the scope's options (zero value on nil).
func (s *Scope) Options() Options {
	if s == nil {
		return Options{}
	}
	return s.opts
}

// Registry returns the scope's metric registry (nil on a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Span records one completed span.
func (s *Scope) Span(pid, tid int, name, cat string, start, end float64, args ...Arg) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) >= s.opts.MaxSpans {
		s.dropped++
		return
	}
	s.spans = append(s.spans, Span{PID: pid, TID: tid, Name: name, Cat: cat, Start: start, End: end, Args: args})
}

// Instant records a zero-duration marker.
func (s *Scope) Instant(pid, tid int, name, cat string, at float64, args ...Arg) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.instants) >= s.opts.MaxSpans {
		s.dropped++
		return
	}
	s.instants = append(s.instants, Instant{PID: pid, TID: tid, Name: name, Cat: cat, At: at, Args: args})
}

// Phase records a driver-level phase span (reorder, warmup, timed …) on
// the dedicated driver track.
func (s *Scope) Phase(name string, start, end float64, args ...Arg) {
	s.Span(DriverPID, 0, name, "phase", start, end, args...)
}

// SetProcessName names a Perfetto process (a simulated node).
func (s *Scope) SetProcessName(pid int, name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.procNames[pid] = name
}

// SetThreadName names a Perfetto thread (a rank) within a process.
func (s *Scope) SetThreadName(pid, tid int, name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.threadNames[[2]int{pid, tid}] = name
}

// ThreadName returns the name set for a Perfetto thread, or "".
func (s *Scope) ThreadName(pid, tid int) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.threadNames[[2]int{pid, tid}]
}

// BindProc associates a sim process name (e.g. "rank3") with its Perfetto
// (pid, tid) track, so engine-level observers can attribute block/wake
// activity to the right track.
func (s *Scope) BindProc(proc string, pid, tid int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.procBind[proc] = [2]int{pid, tid}
}

// LookupProc resolves a sim process name to its (pid, tid) track,
// reporting whether a binding exists.
func (s *Scope) LookupProc(proc string) (pid, tid int, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.procBind[proc]
	return t[0], t[1], ok
}

// Spans returns a copy of the recorded spans.
func (s *Scope) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// Instants returns a copy of the recorded instant events.
func (s *Scope) Instants() []Instant {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Instant(nil), s.instants...)
}

// DroppedSpans returns how many spans/instants were discarded because the
// buffer was full.
func (s *Scope) DroppedSpans() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// trackNames returns sorted copies of the naming metadata.
func (s *Scope) trackNames() (procs []struct {
	PID  int
	Name string
}, threads []struct {
	PID, TID int
	Name     string
}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pid, name := range s.procNames {
		procs = append(procs, struct {
			PID  int
			Name string
		}{pid, name})
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID < procs[j].PID })
	for k, name := range s.threadNames {
		threads = append(threads, struct {
			PID, TID int
			Name     string
		}{k[0], k[1], name})
	}
	sort.Slice(threads, func(i, j int) bool {
		if threads[i].PID != threads[j].PID {
			return threads[i].PID < threads[j].PID
		}
		return threads[i].TID < threads[j].TID
	})
	return procs, threads
}

// labelString renders labels canonically for map keys and export:
// {k1="v1",k2="v2"} with keys sorted.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return out + "}"
}
