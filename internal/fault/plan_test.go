package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *Plan {
	t.Helper()
	p, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func TestParseDSL(t *testing.T) {
	p := mustParse(t, " seed=7; replica-chaos:kills=1,by=1.6s,restart=2s@t=1.1s ;; replica-chaos:kills=2,by=3s ")
	if p.Seed != 7 {
		t.Fatalf("seed = %d, want 7", p.Seed)
	}
	want := []Event{
		{Kind: KindReplicaChaos, Target: 1, At: 1.1, By: 1.6, Restart: 2},
		{Kind: KindReplicaChaos, Target: 2, By: 3},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events = %+v, want %+v", p.Events, want)
	}
}

func TestParseBareSecondsAndPositional(t *testing.T) {
	p := mustParse(t, "replica-chaos:2,by=0.75@t=0.25")
	if want := (Event{Kind: KindReplicaChaos, Target: 2, At: 0.25, By: 0.75}); p.Events[0] != want {
		t.Fatalf("event = %+v, want %+v", p.Events[0], want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"bogus:1",
		"seed=abc",
		"replica-chaos:1@t=",
		"replica-chaos:1@x=5",
		"replica-chaos:1@t=-5",
		"replica-chaos:kills=1,kills=2", // duplicate key
		"replica-chaos:1,extra=2",       // unknown key
		"replica-chaos:1,2",             // double positional
		// The simulator's kinds and the JSON form are gone: each is
		// rejected, never silently ignored.
		"node:3",
		"rank:1",
		"straggle:rank=1,factor=2",
		"link:level=1,degrade=0.5",
		"chaos:ranks=2",
		`{"seed":1}`,
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		} else if !errors.Is(err, ErrBadPlan) {
			t.Errorf("Parse(%q): error %v does not wrap ErrBadPlan", s, err)
		}
	}
}

func TestParseReplicaClauses(t *testing.T) {
	// by and restart default to 0: every kill at At, and no restart.
	p := mustParse(t, "replica-chaos:kills=3@t=2s")
	if want := []Event{{Kind: KindReplicaChaos, Target: 3, At: 2}}; !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events = %+v, want %+v", p.Events, want)
	}
	for _, ev := range p.FleetEvents(5) {
		if ev.Kind != KindReplicaKill || ev.At != 2 {
			t.Fatalf("event %+v, want a kill at t=2s and no restart", ev)
		}
	}
}

func TestParseReplicaErrors(t *testing.T) {
	for _, s := range []string{
		"replica:1", // explicit kills and restarts are not plan clauses
		"restart:replica=1@t=6s",
		"replica-chaos:kills=0",
		"replica-chaos:kills=x",
		"replica-chaos:by=1s",
		"replica-chaos:kills=1,by=-1s",
		"replica-chaos:kills=1,restart=-2s",
		"replica-chaos:kills=1,bogus=3",
	} {
		if _, err := Parse(s); !errors.Is(err, ErrBadPlan) {
			t.Errorf("Parse(%q): err = %v, want ErrBadPlan", s, err)
		}
	}
}

// A clause with more than one bad value reports the same one every time:
// by before restart, and the lexically first unknown key.
func TestParseErrorDeterministic(t *testing.T) {
	for s, want := range map[string]string{
		"replica-chaos:1,by=x,restart=y":    `by="x"`,
		"replica-chaos:1,zeta=1,alpha=2":    `unknown key "alpha"`,
		"replica-chaos:kills=1,2,bogus=3":   "unexpected positional value",
		"replica-chaos:1,restart=y,omega=1": `restart="y"`,
	} {
		_, first := Parse(s)
		if first == nil || !strings.Contains(first.Error(), want) {
			t.Fatalf("Parse(%q) = %v, want an error naming %s", s, first, want)
		}
		for i := 0; i < 200; i++ {
			if _, err := Parse(s); err == nil || err.Error() != first.Error() {
				t.Fatalf("Parse(%q) call %d: %v, first call: %v", s, i, err, first)
			}
		}
	}
}

func TestFleetEventsDeterministic(t *testing.T) {
	p := mustParse(t, "seed=42;replica-chaos:kills=2,by=1s,restart=500ms")
	a := p.FleetEvents(3)
	if !reflect.DeepEqual(a, p.FleetEvents(3)) {
		t.Fatalf("FleetEvents not deterministic: %+v", a)
	}
	kills, restarts := 0, 0
	killAt := map[int][]float64{}
	var restartEvents []Event
	for _, ev := range a {
		switch ev.Kind {
		case KindReplicaKill:
			kills++
			if ev.Target < 0 || ev.Target >= 3 {
				t.Fatalf("kill target %d outside fleet", ev.Target)
			}
			killAt[ev.Target] = append(killAt[ev.Target], ev.At)
		case KindReplicaRestart:
			restarts++
			restartEvents = append(restartEvents, ev)
		default:
			t.Fatalf("unexpected kind %q in fleet events", ev.Kind)
		}
	}
	// 2 chaos kills on distinct replicas.
	if kills != 2 || len(killAt) != 2 {
		t.Fatalf("%d kills on %d replicas, want 2 on 2", kills, len(killAt))
	}
	// Each chaos kill restarts exactly Restart later.
	if restarts != 2 {
		t.Fatalf("%d restarts, want 2", restarts)
	}
	for _, ev := range restartEvents {
		matched := false
		for _, at := range killAt[ev.Target] {
			if ev.At == at+0.5 {
				matched = true
			}
		}
		if !matched {
			t.Fatalf("restart %+v has no kill 0.5s earlier (kills %v)", ev, killAt[ev.Target])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("fleet events not time-sorted: %+v", a)
		}
	}
	// A different seed picks different victims (kills=2 of 3: 3 possible
	// pairs, so seeds 42 and 1 differing is seed-specific but stable).
	q := mustParse(t, "seed=1;replica-chaos:kills=2,by=1s,restart=500ms")
	if reflect.DeepEqual(a, q.FleetEvents(3)) {
		t.Fatal("different seeds produced identical fleet events")
	}
}

func TestFleetEventsScoping(t *testing.T) {
	// More kills than replicas: every replica dies once, none twice, and
	// no target falls outside the fleet.
	p := mustParse(t, "replica-chaos:kills=7")
	got := p.FleetEvents(2)
	seen := map[int]bool{}
	for _, ev := range got {
		if ev.Kind != KindReplicaKill || ev.Target < 0 || ev.Target >= 2 || seen[ev.Target] {
			t.Fatalf("FleetEvents(2) = %+v, want one kill of each of replicas 0 and 1", got)
		}
		seen[ev.Target] = true
	}
	if len(seen) != 2 {
		t.Fatalf("FleetEvents(2) = %+v, want one kill of each of replicas 0 and 1", got)
	}
	if ev := p.FleetEvents(0); ev != nil {
		t.Fatalf("FleetEvents(0) = %+v, want none", ev)
	}
}
