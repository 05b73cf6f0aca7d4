// Package retry implements the bounded-retry policy shared by the layers
// that talk to the fabric: exponential backoff with deterministic jitter
// and an optional per-operation deadline.
//
// The paper's platform (Jaguar-scale Cray XT5 allocations) treats transport
// stalls and lost staging buffers as routine, so every fabric-facing layer
// — a CoDS get, a CoDS put, the DHT fan-out — retries under one policy
// instead of growing ad-hoc loops. Whether an error can be retried is
// decided where it is made: an error is transient only when it carries
// the mark (a Transient method returning true, found with errors.As), and
// every other error is terminal. A loop that gives up returns a terminal
// error, so no loop around it spends its budget on the same failure again.
// Jitter is derived from a caller-provided seed with a splitmix64 hash, not
// from a global RNG: the backoff schedule of a given operation is a pure
// function of (policy, seed, attempt), which is what makes chaos tests
// reproducible under a fixed fault-plan seed.
package retry

import (
	"errors"
	"time"
)

// Policy bounds a retried operation. The zero Policy disables retrying
// (a single attempt, no backoff), so layers pay nothing until a policy is
// explicitly installed.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first.
	// Values <= 1 mean "no retry".
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (0 = uncapped).
	MaxDelay time.Duration
	// Deadline bounds the whole operation across attempts (0 = none): no
	// further attempt starts once Deadline has elapsed since the first.
	Deadline time.Duration
}

// Default is the policy the command-line tools install when retrying is
// requested without explicit tuning.
func Default() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    50 * time.Millisecond,
		Deadline:    5 * time.Second,
	}
}

// The backoff doubles per attempt, and the fraction jitter of each delay is
// randomized: the slept delay is uniform in [d*(1-jitter), d).
const (
	multiplier = 2
	jitter     = 0.2
)

// Enabled reports whether the policy performs any retrying at all.
func (p Policy) Enabled() bool { return p.MaxAttempts > 1 }

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// deterministic hash used to derive jitter without shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// Backoff returns the delay to sleep before attempt+1, where attempt is
// the 1-based index of the attempt that just failed. The un-jittered delay
// is min(MaxDelay, BaseDelay * 2^(attempt-1)); jitter then picks a point in
// [d*(1-jitter), d) deterministically from seed and attempt.
func (p Policy) Backoff(attempt int, seed uint64) time.Duration {
	d := p.delay(attempt)
	u := unit(splitmix64(seed ^ uint64(attempt)*0x9e3779b97f4a7c15))
	return time.Duration(d*(1-jitter) + u*d*jitter)
}

// delay is Backoff's un-jittered delay.
func (p Policy) delay(attempt int) float64 {
	if attempt < 1 || p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= multiplier
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return d
}

// Do runs op up to MaxAttempts times, sleeping the policy's backoff
// between attempts, while it fails with a transient error; it stops before
// a backoff that would land past the Deadline. It returns the number of
// attempts alongside the final error (nil on success), which is always
// terminal: the last attempt's error, wrapped to unwrap to its cause.
//
// sleeps, when non-nil, receives each backoff actually slept; callers use
// it to feed histograms without the policy importing obs.
func Do(p Policy, seed uint64, sleeps func(time.Duration), op func(attempt int) error) (int, error) {
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := op(attempt)
		if err == nil {
			return attempt, nil
		}
		d := p.Backoff(attempt, seed)
		if attempt >= p.MaxAttempts || !transient(err) || p.Deadline > 0 && time.Since(start)+d > p.Deadline {
			return attempt, terminal{err}
		}
		if d > 0 {
			if sleeps != nil {
				sleeps(d)
			}
			time.Sleep(d)
		}
	}
}

// transient reports whether err carries a transient mark.
func transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// terminal is the error of a loop that gave up on its cause.
type terminal struct{ error }

func (terminal) Transient() bool { return false }

func (e terminal) Unwrap() error { return e.error }
