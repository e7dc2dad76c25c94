// Chrome trace-event JSON export (the "JSON Array Format" Perfetto and
// chrome://tracing accept): one Perfetto "process" per simulated node,
// one "thread" per rank, complete ("X") events for spans, instant ("i")
// events for markers, and metadata ("M") events naming the tracks.
// Timestamps are virtual microseconds.

package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// spansDroppedKey is the otherData key of Scope.DroppedSpans.
const spansDroppedKey = "spans_dropped"

type traceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// secToUS converts virtual seconds to trace microseconds.
func secToUS(t float64) float64 { return t * 1e6 }

func argMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// WriteTraceJSON writes the scope's spans and instants as Chrome
// trace-event JSON. The output is deterministic: events are sorted by
// (ts, pid, tid, name) after the metadata header. The otherData block
// carries the run metadata and, when the span cap (Options.MaxSpans,
// 1<<20 in every command) discarded events, their count as
// spans_dropped.
func WriteTraceJSON(w io.Writer, s *Scope) error {
	if s == nil {
		_, err := w.Write([]byte(`{"traceEvents":[],"displayTimeUnit":"ms"}`))
		return err
	}
	procs, threads := s.trackNames()
	spans := s.Spans()
	instants := s.Instants()

	events := make([]traceEvent, 0, len(procs)+len(threads)+len(spans)+len(instants))
	for _, p := range procs {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", PID: p.PID,
			Args: map[string]any{"name": p.Name},
		})
	}
	for _, t := range threads {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: t.PID, TID: t.TID,
			Args: map[string]any{"name": t.Name},
		})
	}
	meta := len(events)

	for _, sp := range spans {
		d := secToUS(sp.End - sp.Start)
		if d < 0 {
			d = 0
		}
		dur := d
		events = append(events, traceEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: secToUS(sp.Start), Dur: &dur,
			PID: sp.PID, TID: sp.TID, Args: argMap(sp.Args),
		})
	}
	for _, in := range instants {
		events = append(events, traceEvent{
			Name: in.Name, Cat: in.Cat, Ph: "i",
			TS: secToUS(in.At), PID: in.PID, TID: in.TID,
			S: "t", Args: argMap(in.Args),
		})
	}
	body := events[meta:]
	sort.SliceStable(body, func(i, j int) bool {
		if body[i].TS != body[j].TS {
			return body[i].TS < body[j].TS
		}
		if body[i].PID != body[j].PID {
			return body[i].PID < body[j].PID
		}
		if body[i].TID != body[j].TID {
			return body[i].TID < body[j].TID
		}
		return body[i].Name < body[j].Name
	})

	other := s.Meta()
	if dropped := s.DroppedSpans(); dropped > 0 {
		other[spansDroppedKey] = strconv.FormatInt(dropped, 10)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms", OtherData: other})
}
