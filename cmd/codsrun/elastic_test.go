package main

import (
	"testing"
	"time"

	"github.com/insitu/cods/internal/membership"
)

// TestSettleWithUnfiredChaosHook: a crash hook that never fired — the
// ledger stayed empty, so no doomed block was ever seen — leaves nothing to
// recover. Settle gives it its last poll and returns at once instead of
// waiting out its timeout for a recovery that cannot come.
func TestSettleWithUnfiredChaosHook(t *testing.T) {
	el := &elastic{
		reg:    membership.NewRegistry(time.Second),
		ledger: membership.NewLedger(),
		stop:   make(chan struct{}),
	}
	defer close(el.stop)
	el.startChaos(0, 0)
	if err := el.Settle(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
