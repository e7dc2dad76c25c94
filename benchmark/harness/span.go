package harness

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans live in
// memory during the run and are written out when it ends.
type Span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // ID of the span that caused this one, -1 for an op's root
	Op     int    `json:"op"`     // index of the op; shared by all spans of one op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls above 1 marks an aggregate: that many calls too short to
	// record one by one, laid end to end from the first one's start.
	Calls int `json:"calls,omitempty"`
}

// Recorder collects spans on one lane per client goroutine, so recording
// takes no lock on the measured path.
type Recorder struct {
	epoch time.Time
	lanes []*Lane
}

// Lane is one goroutine's span buffer. A nil *Lane records nothing, so
// workload code calls it unconditionally and the untraced run pays one
// nil check per call.
type Lane struct {
	epoch time.Time
	spans []Span
}

// NewRecorder returns a recorder with one lane per client.
func NewRecorder(clients int) *Recorder {
	r := &Recorder{epoch: time.Now()}
	for i := 0; i < clients; i++ {
		r.lanes = append(r.lanes, &Lane{epoch: r.epoch})
	}
	return r
}

// Lane returns client i's lane; nil when the recorder is nil.
func (r *Recorder) Lane(i int) *Lane {
	if r == nil {
		return nil
	}
	return r.lanes[i]
}

// Start opens a span and returns its lane-local id for End and for
// children's parent argument; -1 on a nil lane.
func (l *Lane) Start(name string, parent, op int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, Span{Name: name, ID: len(l.spans), Parent: parent, Op: op,
		Start: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

// End closes the span Start returned.
func (l *Lane) End(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = int64(time.Since(l.epoch))
}

// Aggregate records calls calls that together took total as one span
// laid from the parent's start.
func (l *Lane) Aggregate(name string, parent, op, calls int, total time.Duration) {
	if l == nil {
		return
	}
	start := l.spans[parent].Start
	l.spans = append(l.spans, Span{Name: name, ID: len(l.spans), Parent: parent, Op: op,
		Start: start, End: start + int64(total), Calls: calls})
}

// Spans merges the lanes into one list with run-wide ids.
func (r *Recorder) Spans() []Span {
	var out []Span
	for _, l := range r.lanes {
		base := len(out)
		for _, s := range l.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// SelfStat is the per-name roll-up of a span list.
type SelfStat struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// SelfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of its interval that its child
// spans cover (overlapping children are counted once).
func SelfTimes(spans []Span) map[string]SelfStat {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]SelfStat{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.Count += max(s.Calls, 1)
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}

// TraceFile is the layout of out/trace-<workload>.json.
type TraceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Self     map[string]SelfStat `json:"self_times"`
	Spans    []Span              `json:"spans"`
}

// WriteTrace writes the span file.
func WriteTrace(path string, t TraceFile) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
