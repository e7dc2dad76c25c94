// The global retry budget: a token bucket deposited by live traffic and
// withdrawn by retries. With a deposit ratio r, sustained failure can
// amplify fleet traffic by at most a factor of 1+r — the router degrades
// to fallback answers instead of melting the surviving replicas under a
// retry storm.

package fleet

import "sync"

// Budget is a concurrency-safe retry token bucket.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// NewBudget returns a budget depositing ratio tokens per request, capped
// at max tokens. The bucket starts full so short bursts right after boot
// can still retry.
func NewBudget(ratio, max float64) *Budget {
	return &Budget{tokens: max, max: max, ratio: ratio}
}

// Deposit credits the budget for one incoming request.
func (b *Budget) Deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Withdraw takes one retry token; it reports false — retry denied — when
// the bucket is empty.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (for /v1/fleet).
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
