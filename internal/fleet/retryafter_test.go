package fleet

import (
	"math/rand"
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
		ok   bool
	}{
		{"empty", "", 0, false},
		{"zero seconds", "0", 0, true},
		{"seconds", "120", 120 * time.Second, true},
		{"negative seconds", "-3", 0, false},
		{"largest seconds that fit", "9223372036", 9223372036 * time.Second, true},
		{"seconds past a Duration", "9223372037", 0, false},
		{"seconds that would wrap positive", "18446744074", 0, false},
		{"garbage", "soon", 0, false},
		{"fractional rejected", "1.5", 0, false},
		{"http-date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http-date past clamps", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"ansi-c date", now.Add(30 * time.Second).Format(time.ANSIC), 30 * time.Second, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseRetryAfter(tc.v, now)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.v, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestBackoffDelayCappedAndJittered(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	for retry := 0; retry < 10; retry++ {
		want := base << uint(retry)
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 100; i++ {
			d := BackoffDelay(base, max, retry, 0, rng.Int63n)
			if d < want/2 || d > want {
				t.Fatalf("retry %d: delay %v outside [%v, %v]", retry, d, want/2, want)
			}
		}
	}
	// Retry-After dominates a shorter computed backoff.
	if d := BackoffDelay(base, max, 0, time.Second, rng.Int63n); d != time.Second {
		t.Fatalf("Retry-After not honoured: %v", d)
	}
}
