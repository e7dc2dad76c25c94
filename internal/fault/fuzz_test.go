package fault

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParsePlan drives the fault-plan parser with arbitrary inputs. The
// parser must never panic, every error must wrap ErrBadPlan, and anything
// it accepts must stay within MaxEvents and expand deterministically into
// in-range replica kills and restarts.
func FuzzParsePlan(f *testing.F) {
	f.Add("seed=42;replica-chaos:kills=1,by=1.6s,restart=2s@t=1.1s") // make smoke-fleet
	f.Add("seed=42;replica-chaos:kills=1,by=450ms@t=350ms")          // the fleet chaos test
	f.Add("replica-chaos:1@t=-1")                                    // negative time
	f.Add("replica-chaos:1@t=1e308s")
	f.Add("replica-chaos:kills=100000")
	f.Add("replica-chaos:kills=2,by=nan")
	f.Add("seed=9223372036854775807")
	f.Add("{")
	f.Add(";;;")
	// One clause of each kind the grammar no longer has.
	f.Add("seed=7;node:3@t=50ms")
	f.Add("rank:0;rank:1;rank:2")
	f.Add("straggle:rank=17,factor=4,level=2")
	f.Add("link:level=2,degrade=0.5@t=1ms")
	f.Add("chaos:ranks=2,by=100ms")
	f.Add("replica:1@t=2s")
	f.Add("restart:replica=1@t=6s")
	f.Add(`{"seed": 1, "events": [{"kind": "rank", "target": 2}]}`)

	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("Parse(%q): error %v does not wrap ErrBadPlan", s, err)
			}
			return
		}
		if len(p.Events) > MaxEvents {
			t.Fatalf("accepted %d events (limit %d)", len(p.Events), MaxEvents)
		}
		const fleet = 5
		a := p.FleetEvents(fleet)
		if !reflect.DeepEqual(a, p.FleetEvents(fleet)) {
			t.Fatalf("FleetEvents not deterministic for %q", s)
		}
		for _, ev := range a {
			if ev.Kind != KindReplicaKill && ev.Kind != KindReplicaRestart {
				t.Fatalf("%q: %s event survived expansion: %+v", s, ev.Kind, ev)
			}
			if ev.Target < 0 || ev.Target >= fleet || !(ev.At >= 0 && ev.At <= 2*MaxTime) {
				t.Fatalf("%q: event out of range: %+v", s, ev)
			}
		}
	})
}
