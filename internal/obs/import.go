// Chrome trace-event JSON import: the inverse of WriteTraceJSON, close
// enough that a written trace reads back into an equivalent Scope. The
// reader exists so mrtrace can open traces produced by other processes
// (mrserved's server-side request traces in particular) and render the
// same flame summary it prints for its own runs.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// ReadTraceJSON reconstructs a Scope from Chrome trace-event JSON as
// produced by WriteTraceJSON: metadata ("M") events become track names,
// complete ("X") events spans, instant ("i") events instants, and the
// otherData block run metadata, except spans_dropped, which restores
// DroppedSpans. Numeric args are kept (truncated to int64, the only arg
// type the Scope model holds); other arg types are dropped. Unknown phases are skipped rather than rejected, so traces
// from other tools that follow the format mostly load too.
func ReadTraceJSON(r io.Reader) (*Scope, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("parsing trace JSON: %w", err)
	}
	sc := New(Options{MaxSpans: len(tf.TraceEvents) + 1})
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			name, _ := ev.Args["name"].(string)
			switch ev.Name {
			case "process_name":
				sc.SetProcessName(ev.PID, name)
			case "thread_name":
				sc.SetThreadName(ev.PID, ev.TID, name)
			}
		case "X":
			var dur float64
			if ev.Dur != nil {
				dur = *ev.Dur
			}
			sc.Span(ev.PID, ev.TID, ev.Name, ev.Cat,
				usToSec(ev.TS), usToSec(ev.TS+dur), intArgs(ev.Args)...)
		case "i":
			sc.Instant(ev.PID, ev.TID, ev.Name, ev.Cat, usToSec(ev.TS), intArgs(ev.Args)...)
		}
	}
	for k, v := range tf.OtherData {
		if k != spansDroppedKey {
			sc.SetMeta(k, v)
			continue
		}
		dropped, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing trace JSON: otherData %s: %w", k, err)
		}
		sc.dropped = dropped
	}
	return sc, nil
}

// ReadTraceFile reads the trace-event JSON at path into a Scope.
func ReadTraceFile(path string) (*Scope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := ReadTraceJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// usToSec converts trace microseconds back to virtual seconds.
func usToSec(us float64) float64 { return us / 1e6 }

// intArgs converts a JSON args object back to the integer Arg list,
// sorted by key (the map held no order to preserve).
func intArgs(m map[string]any) []Arg {
	if len(m) == 0 {
		return nil
	}
	args := make([]Arg, 0, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok {
			args = append(args, Arg{Key: k, Val: int64(f)})
		}
	}
	sort.Slice(args, func(i, j int) bool { return args[i].Key < args[j].Key })
	return args
}
