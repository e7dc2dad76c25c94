// Retry-After parsing and the retry backoff curve, shared by the router
// and load clients. RFC 9110 §10.2.3 allows two forms — delay-seconds
// ("120") and an HTTP-date ("Fri, 08 Aug 2026 10:00:00 GMT") — and real
// proxies emit both, so accepting only the integer form silently drops
// the hint and falls back to the default backoff curve.

package fleet

import (
	"math"
	"net/http"
	"strconv"
	"time"
)

// ParseRetryAfter interprets a Retry-After header value as a delay
// relative to now. It accepts the delay-seconds form (a non-negative
// integer) and the HTTP-date forms understood by http.ParseTime; a date
// already in the past clamps to zero rather than producing a negative
// delay. The second return is false when the value is absent or
// unparseable, or when its delay-seconds do not fit a time.Duration, in
// which case callers keep their own backoff.
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 || int64(secs) > math.MaxInt64/int64(time.Second) {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0, false
	}
	d := t.Sub(now)
	if d < 0 {
		d = 0
	}
	return d, true
}

// BackoffDelay is the one retry policy: base doubled per zero-based retry
// and capped at max, jittered into [d/2, d] to stagger synchronized retry
// herds, then raised to the server's Retry-After hint when that is longer.
// int63n draws the jitter (rand.Int63n, or a seeded *rand.Rand's method).
func BackoffDelay(base, max time.Duration, retry int, retryAfter time.Duration, int63n func(int64) int64) time.Duration {
	d := base << uint(retry)
	if d > max || d <= 0 {
		d = max
	}
	d = d/2 + time.Duration(int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}
