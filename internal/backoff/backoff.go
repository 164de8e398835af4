// Package backoff is the repository's one retry-delay policy: bounded
// exponential growth with a deterministic, subtractive jitter. The State
// Syncer spaces out retries of a failing job with it and the spec-feed
// dialer spaces out reconnects. The jitter is a hash of (key, salt), not
// a random draw, so simulated deployments replay bit-identically.
package backoff

import (
	"time"

	"repro/internal/fnv1a"
)

// Delay returns base doubled doublings times, capped at max, minus a
// jitter of up to a quarter of that delay drawn from the FNV-1a hash of
// key followed by salt. Delays for distinct keys spread apart instead of
// firing in lockstep; the same inputs always give the same delay.
func Delay(base, max time.Duration, doublings int, key string, salt uint64) time.Duration {
	d := base
	for i := 0; i < doublings && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := uint64(fnv1a.New64().AddString(key).AddUint64(salt))
	return d - time.Duration(h%uint64(d/4+1))
}
