// Package retry is the single retry/backoff vocabulary of the
// middleware. Historically vfs, gram, and the wire client each grew a
// private retry policy with the same shape and slightly different
// defaults; Policy unifies them. The per-layer semantics — what is
// retried, and what a failed attempt even means — stay with the layer:
// vfs retries timed-out RPCs, gram replays only pre-dispatch rejections,
// the wire client resends only requests that never reached the server.
// Policy owns the part they genuinely share: how many attempts, and how
// long to wait between them.
//
// Delays are capped-exponential: attempt n waits Backoff·2^(n-1),
// clamped to MaxBackoff.
package retry

import "vmgrid/internal/sim"

// Policy bounds attempts and spaces them with capped exponential
// backoff. The zero value means "defer to the caller's defaults": each
// layer applies its historical MaxAttempts/Backoff defaults to zero
// fields, so existing call sites keep their exact behavior.
type Policy struct {
	// MaxAttempts is the total number of tries, first included.
	// Values below 1 mean one attempt (no retries) unless the layer
	// documents a different default.
	MaxAttempts int
	// Timeout bounds one attempt, for layers that time out individual
	// attempts (vfs RPCs). Zero disables per-attempt timeouts.
	Timeout sim.Duration
	// Backoff is the delay before the second attempt; it doubles per
	// subsequent attempt. Zero selects the layer default.
	Backoff sim.Duration
	// MaxBackoff caps the doubling. Zero means the layer default cap,
	// or uncapped where the layer never capped.
	MaxBackoff sim.Duration
}

// Attempts returns the effective attempt count: MaxAttempts, floored
// at one.
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the wait before retry attempt+1, where attempt is the
// 1-based index of the attempt that just failed: Backoff·2^(attempt-1)
// clamped to MaxBackoff. def supplies the layer's historical base
// backoff when Policy.Backoff is zero.
func (p Policy) Delay(attempt int, def sim.Duration) sim.Duration {
	b := p.Backoff
	if b <= 0 {
		b = def
	}
	d := b
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// IsZero reports whether every tunable is unset, i.e. the policy
// defers entirely to layer defaults.
func (p Policy) IsZero() bool { return p == Policy{} }
