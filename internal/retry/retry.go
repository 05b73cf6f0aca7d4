// Package retry implements the bounded-retry policy shared by the layers
// that talk to the fabric: exponential backoff with deterministic jitter
// and an optional per-operation deadline.
//
// The paper's platform (Jaguar-scale Cray XT5 allocations) treats transport
// stalls and lost staging buffers as routine, so every fabric-facing layer
// — a CoDS get, a CoDS put, the DHT fan-out — retries transient failures
// under one policy instead of growing ad-hoc loops, each failure in exactly
// one of them. The transport below them retries nothing: a dial is
// attempted once, and its failure is the failed attempt of the layer that
// asked.
// Jitter is derived from a caller-provided seed with a splitmix64 hash, not
// from a global RNG: the backoff schedule of a given operation is a pure
// function of (policy, seed, attempt), which is what makes chaos tests
// reproducible under a fixed fault-plan seed.
package retry

import (
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
// between attempts. retryable classifies errors: a non-retryable error
// stops immediately. The per-operation Deadline is consulted before every
// sleep — if the next backoff would land past it, Do returns the last
// error instead of sleeping. It returns the number of attempts performed
// alongside the final error (nil on success).
//
// sleeps, when non-nil, receives each backoff actually slept; callers use
// it to feed histograms without the policy importing obs.
func Do(p Policy, seed uint64, retryable func(error) bool, sleeps func(time.Duration), op func(attempt int) error) (int, error) {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	start := time.Now()
	var err error
	for attempt := 1; ; attempt++ {
		err = op(attempt)
		if err == nil {
			return attempt, nil
		}
		if attempt >= max {
			return attempt, err
		}
		if retryable != nil && !retryable(err) {
			return attempt, err
		}
		d := p.Backoff(attempt, seed)
		if p.Deadline > 0 && time.Since(start)+d > p.Deadline {
			return attempt, err
		}
		if d > 0 {
			if sleeps != nil {
				sleeps(d)
			}
			time.Sleep(d)
		}
	}
}
