package retry

import (
	"errors"
	"testing"
	"time"
)

// TestBackoffTable pins the un-jittered delay exactly and holds Backoff to
// the jitter window below it.
func TestBackoffTable(t *testing.T) {
	cases := []struct {
		name    string
		p       Policy
		attempt int
		want    time.Duration
	}{
		{"zero policy", Policy{}, 1, 0},
		{"attempt zero", Policy{BaseDelay: time.Millisecond}, 0, 0},
		{"first backoff is base", Policy{BaseDelay: time.Millisecond}, 1, time.Millisecond},
		{"doubles per attempt", Policy{BaseDelay: time.Millisecond}, 3, 4 * time.Millisecond},
		{"default multiplier is 2", Policy{BaseDelay: time.Millisecond}, 2, 2 * time.Millisecond},
		{"cap applies", Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}, 4, 5 * time.Millisecond},
		{"cap on deep attempt", Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}, 60, 5 * time.Millisecond},
		{"cap above growth is inert", Policy{BaseDelay: time.Millisecond, MaxDelay: time.Minute}, 3, 4 * time.Millisecond},
		{"cap below base", Policy{BaseDelay: time.Millisecond, MaxDelay: time.Microsecond}, 1, time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := time.Duration(tc.p.delay(tc.attempt)); got != tc.want {
				t.Fatalf("delay(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
			got := tc.p.Backoff(tc.attempt, 7)
			if lo := time.Duration(float64(tc.want) * (1 - jitter)); got < lo || got > tc.want || (tc.want > 0 && got == tc.want) {
				t.Fatalf("Backoff(%d) = %v, want in [%v, %v)", tc.attempt, got, lo, tc.want)
			}
		})
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		base := time.Duration(p.delay(attempt))
		lo := time.Duration(float64(base) * (1 - jitter))
		for seed := uint64(0); seed < 64; seed++ {
			d := p.Backoff(attempt, seed)
			if d < lo || d >= base {
				t.Fatalf("attempt %d seed %d: jittered %v outside [%v, %v)", attempt, seed, d, lo, base)
			}
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond}
	for attempt := 1; attempt <= 5; attempt++ {
		a := p.Backoff(attempt, 42)
		b := p.Backoff(attempt, 42)
		if a != b {
			t.Fatalf("attempt %d: same seed gave %v then %v", attempt, a, b)
		}
	}
	// Different seeds must actually spread (not all collapse to one point).
	seen := map[time.Duration]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		seen[p.Backoff(1, seed)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced a single value across 32 seeds")
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	fail := errors.New("transient")
	calls := 0
	attempts, err := Do(Policy{MaxAttempts: 3}, 1, nil, nil, func(int) error {
		calls++
		return fail
	})
	if attempts != 3 || calls != 3 || !errors.Is(err, fail) {
		t.Fatalf("attempts=%d calls=%d err=%v, want 3/3/transient", attempts, calls, err)
	}
}

func TestDoSucceedsMidway(t *testing.T) {
	calls := 0
	attempts, err := Do(Policy{MaxAttempts: 5}, 1, nil, nil, func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if attempts != 3 || err != nil {
		t.Fatalf("attempts=%d err=%v, want 3/nil", attempts, err)
	}
}

func TestDoRespectsNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	attempts, err := Do(Policy{MaxAttempts: 5}, 1,
		func(err error) bool { return !errors.Is(err, fatal) }, nil,
		func(int) error { return fatal })
	if attempts != 1 || !errors.Is(err, fatal) {
		t.Fatalf("attempts=%d err=%v, want 1/fatal", attempts, err)
	}
}

func TestDoDeadlineStopsBeforeSleep(t *testing.T) {
	// The first backoff (10ms) already overshoots the 1ms deadline, so Do
	// must give up after one attempt without sleeping.
	p := Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, Deadline: time.Millisecond}
	start := time.Now()
	attempts, err := Do(p, 1, nil, nil, func(int) error { return errors.New("transient") })
	if attempts != 1 || err == nil {
		t.Fatalf("attempts=%d err=%v, want 1/non-nil", attempts, err)
	}
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Fatalf("Do slept %v despite deadline", el)
	}
}

func TestDoZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	attempts, err := Do(Policy{}, 1, nil, nil, func(int) error { calls++; return errors.New("x") })
	if attempts != 1 || calls != 1 || err == nil {
		t.Fatalf("zero policy: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
	if (Policy{}).Enabled() {
		t.Fatalf("zero policy reports Enabled")
	}
	if !Default().Enabled() {
		t.Fatalf("Default policy reports disabled")
	}
}

func TestDoReportsSleeps(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond}
	_, _ = Do(p, 1, nil, func(d time.Duration) { slept = append(slept, d) },
		func(int) error { return errors.New("transient") })
	if want := []time.Duration{p.Backoff(1, 1), p.Backoff(2, 1)}; len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("slept = %v, want %v", slept, want)
	}
}
