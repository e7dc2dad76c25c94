// Package fault holds the seeded chaos schedule of the serving tier: a
// fault plan, parsed from a small DSL, whose replica-chaos clauses expand
// into replica kills and restarts at times that depend only on the seed
// and the fleet size. mrgate -print-plan prints the schedule and the
// fleet's chaos drills follow it.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrBadPlan is wrapped by every parse/validation error so callers can
// distinguish malformed plans from runtime failures with errors.Is.
var ErrBadPlan = errors.New("fault: bad plan")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadPlan, fmt.Sprintf(format, args...))
}

// Kind classifies a fault event.
type Kind string

const (
	// KindReplicaKill crashes serving replica Target at time At.
	KindReplicaKill Kind = "replica"
	// KindReplicaRestart restarts serving replica Target at time At.
	KindReplicaRestart Kind = "restart"
	// KindReplicaChaos expands (via FleetEvents) into Target replica kills
	// at seed-deterministic times drawn uniformly from [At, By], each
	// followed by a restart Restart seconds later when Restart > 0. It is
	// the one kind a plan states; FleetEvents emits the other two.
	KindReplicaChaos Kind = "replica-chaos"
)

// Plan limits; plans are tiny configuration, not bulk data.
const (
	MaxEvents     = 256
	MaxChaosKills = 4096
	MaxTime       = 1e9 // seconds
)

// Event is one fault in a plan. Which fields are meaningful depends on
// Kind; see the Kind constants.
type Event struct {
	Kind    Kind
	Target  int     // replica, or the replica-chaos kill count
	At      float64 // seconds from the start of the run
	By      float64 // replica-chaos: upper bound for kill times
	Restart float64 // replica-chaos: restart delay after each kill
}

// Plan is a deterministic fault schedule. The zero Plan injects nothing.
type Plan struct {
	Seed   int64
	Events []Event
}

// Empty reports whether the plan injects no faults.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Parse reads a fault plan from the compact DSL: semicolon-separated
// clauses, such as
//
//	seed=7
//	replica-chaos:kills=1,by=3s,restart=2s@t=1s
//
// Times accept time.ParseDuration syntax ("50ms", "1.5s") or a bare number
// of seconds. "@t=..." is optional and defaults to t=0. All errors wrap
// ErrBadPlan.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, badf("empty plan")
	}
	p := &Plan{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := p.parseClause(clause); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) parseClause(clause string) error {
	head, rest, hasBody := strings.Cut(clause, ":")
	head = strings.TrimSpace(head)
	if !hasBody {
		// bare key=value clause: only "seed=N"
		key, val, ok := strings.Cut(head, "=")
		if !ok || strings.TrimSpace(key) != "seed" {
			return badf("clause %q: expected kind:args or seed=N", clause)
		}
		seed, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return badf("seed %q: %v", val, err)
		}
		p.Seed = seed
		return nil
	}
	if Kind(head) != KindReplicaChaos {
		return badf("clause %q: unknown fault kind %q", clause, head)
	}

	// Split off the optional "@t=<dur>" suffix.
	body, at := rest, 0.0
	if i := strings.LastIndex(rest, "@"); i >= 0 {
		body = rest[:i]
		suffix := strings.TrimSpace(rest[i+1:])
		tv, ok := strings.CutPrefix(suffix, "t=")
		if !ok {
			return badf("clause %q: expected @t=<duration>", clause)
		}
		d, err := parseSeconds(tv)
		if err != nil {
			return badf("clause %q: %v", clause, err)
		}
		at = d
	}
	body = strings.TrimSpace(body)

	ev := Event{Kind: KindReplicaChaos, At: at}
	kv := map[string]string{}
	for _, f := range strings.Split(body, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if k, v, ok := strings.Cut(f, "="); ok {
			k = strings.TrimSpace(k)
			if _, dup := kv[k]; dup {
				return badf("clause %q: duplicate key %q", clause, k)
			}
			kv[k] = strings.TrimSpace(v)
		} else if _, bare := kv[""]; !bare {
			kv[""] = f // positional value, e.g. replica-chaos:2
		} else {
			return badf("clause %q: more than one positional value", clause)
		}
	}

	kills, ok := kv["kills"]
	if ok {
		delete(kv, "kills")
	} else if kills, ok = kv[""]; ok {
		delete(kv, "")
	} else {
		return badf("clause %q: missing kills=", clause)
	}
	n, err := strconv.Atoi(kills)
	if err != nil {
		return badf("clause %q: kills=%q: %v", clause, kills, err)
	}
	ev.Target = n
	// by before restart, then the lexically first leftover key: one bad
	// clause reports one error, whatever the map's iteration order.
	for _, f := range []struct {
		key string
		dst *float64
	}{{"by", &ev.By}, {"restart", &ev.Restart}} {
		if v, ok := kv[f.key]; ok {
			delete(kv, f.key)
			d, err := parseSeconds(v)
			if err != nil {
				return badf("clause %q: %s=%q: %v", clause, f.key, v, err)
			}
			*f.dst = d
		}
	}

	if len(kv) > 0 {
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		if k := slices.Min(keys); k != "" {
			return badf("clause %q: unknown key %q", clause, k)
		}
		return badf("clause %q: unexpected positional value", clause)
	}
	p.Events = append(p.Events, ev)
	return nil
}

// parseSeconds accepts time.ParseDuration syntax or a bare float of
// seconds.
func parseSeconds(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty duration")
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return d.Seconds(), nil
}

// Validate checks every event for in-range fields. All errors wrap
// ErrBadPlan.
func (p *Plan) Validate() error {
	if len(p.Events) > MaxEvents {
		return badf("%d events (limit %d)", len(p.Events), MaxEvents)
	}
	for i, ev := range p.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("%w (event %d)", err, i)
		}
	}
	return nil
}

func (ev Event) validate() error {
	bad := func(format string, args ...any) error {
		return badf("%s: %s", ev.Kind, fmt.Sprintf(format, args...))
	}
	if ev.Kind != KindReplicaChaos {
		return badf("unknown kind %q", ev.Kind)
	}
	if !(ev.At >= 0 && ev.At <= MaxTime) {
		return bad("time %v out of range", ev.At)
	}
	if ev.Target < 1 || ev.Target > MaxChaosKills {
		return bad("kills %d outside [1, %d]", ev.Target, MaxChaosKills)
	}
	if !(ev.By >= 0 && ev.By <= MaxTime) {
		return bad("by %v out of range", ev.By)
	}
	if !(ev.Restart >= 0 && ev.Restart <= MaxTime) {
		return bad("restart %v out of range", ev.Restart)
	}
	return nil
}

// FleetEvents expands the plan against a fleet of nreplicas replicas,
// turning each replica-chaos clause into seed-deterministic kill (and
// optional restart) events on distinct replicas, at most one per replica
// and clause. The result is sorted by (time, kind, target), so a chaos
// run's kill schedule is a pure function of (plan, fleet size) — reruns
// with the same seed kill the same replicas at the same times.
func (p *Plan) FleetEvents(nreplicas int) []Event {
	if p.Empty() || nreplicas <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var out []Event
	for _, ev := range p.Events {
		if ev.Kind != KindReplicaChaos {
			continue
		}
		n := min(ev.Target, nreplicas)
		for _, r := range rng.Perm(nreplicas)[:n] {
			at := ev.At
			if ev.By > at {
				at += rng.Float64() * (ev.By - at)
			}
			out = append(out, Event{Kind: KindReplicaKill, Target: r, At: at})
			if ev.Restart > 0 {
				out = append(out, Event{Kind: KindReplicaRestart, Target: r, At: at + ev.Restart})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	return out
}
