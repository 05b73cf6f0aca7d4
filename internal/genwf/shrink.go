package genwf

import (
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/sfc"
)

// Shrink reduces a failing scenario to a (locally) minimal one that still
// fails. fails must report whether a scenario reproduces the failure; it
// is assumed true for the input. Shrinking is deterministic: candidates
// are tried in a fixed order, greedily restarting from the first accepted
// reduction, so the same failing scenario always shrinks to the same
// minimal scenario.
func Shrink(sc Scenario, fails func(Scenario) bool) Scenario {
	for accepted := 0; accepted < 200; accepted++ {
		improved := false
		for _, cand := range candidates(sc) {
			if cand.Validate() != nil {
				continue
			}
			if fails(cand) {
				sc = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return sc
}

// candidates lists the single-step reductions of a scenario, biggest
// simplifications first. Every candidate is a deep copy; invalid ones are
// filtered by the caller.
func candidates(sc Scenario) []Scenario {
	var out []Scenario
	add := func(mutate func(*Scenario)) {
		c := sc.Clone()
		mutate(&c)
		out = append(out, c)
	}

	if sc.Faults != "" {
		add(func(c *Scenario) { c.Faults = "" })
	}
	if sc.Retry != 0 && sc.Faults == "" {
		add(func(c *Scenario) { c.Retry = 0 })
	}
	if sc.Restage {
		add(func(c *Scenario) { c.Restage = false })
	}
	if sc.Remap {
		add(func(c *Scenario) { c.Remap = false })
	}
	if sc.Resub != 0 {
		add(func(c *Scenario) { c.Resub = 0 })
	}
	if sc.ConsumeEvery > 1 {
		add(func(c *Scenario) { c.ConsumeEvery = 1 })
	}
	if sc.Stream && sc.Drop {
		// Backpressure is the simpler policy, but stride/resub/kill depend
		// on drop-oldest; drop those with it.
		add(func(c *Scenario) { c.Drop, c.ConsumeEvery, c.Resub, c.Kill = false, 1, 0, 0 })
	}
	if sc.Stream && sc.Rounds > 1 {
		add(func(c *Scenario) { c.Rounds, c.Resub = 1, 0 })
		add(func(c *Scenario) {
			c.Rounds--
			if c.Resub >= c.Rounds {
				c.Resub = 0
			}
		})
	}
	if sc.Stream && sc.MaxLag > 1 {
		add(func(c *Scenario) { c.MaxLag = 1 })
		add(func(c *Scenario) { c.MaxLag-- })
	}
	if sc.Kill != 0 {
		add(func(c *Scenario) { c.Kill = 0 })
		if sc.Kill > 1 {
			add(func(c *Scenario) { c.Kill = 1 })
		}
	}
	if !sc.Sequential {
		// Sequential staging is the base coupling mode — concurrent adds
		// the overlap machinery on top, and needs cores for both apps at
		// once that the producers-then-consumers schedule frees up.
		add(func(c *Scenario) { c.Sequential = true })
	}
	if !sc.Sequential && !sc.Staged {
		add(func(c *Scenario) { c.Staged = true })
	}
	if sc.Versions > 1 {
		add(func(c *Scenario) { c.Versions = 1 })
		add(func(c *Scenario) { c.Versions-- })
	}
	if sc.Vars > 1 {
		add(func(c *Scenario) { c.Vars = 1 })
	}
	if sc.Ghost > 0 {
		add(func(c *Scenario) { c.Ghost = 0 })
		add(func(c *Scenario) { c.Ghost-- })
	}
	if sc.SpanCache != sfc.DefaultSpanCacheCapacity {
		add(func(c *Scenario) { c.SpanCache = sfc.DefaultSpanCacheCapacity })
	}
	if sc.Mapping != Consecutive {
		add(func(c *Scenario) { c.Mapping = Consecutive })
	}
	if sc.Curve != "" {
		add(func(c *Scenario) { c.Curve = "" })
	}
	if sc.ProdKind != decomp.Blocked {
		add(func(c *Scenario) { c.ProdKind, c.ProdBlock = decomp.Blocked, nil })
	}
	if sc.ConsKind != decomp.Blocked {
		add(func(c *Scenario) { c.ConsKind, c.ConsBlock = decomp.Blocked, nil })
	}

	// Coarsen the task grids one dimension at a time.
	for d := range sc.ProdGrid {
		if sc.ProdGrid[d] > 1 {
			d := d
			add(func(c *Scenario) { c.ProdGrid[d] = 1 })
			if sc.ProdGrid[d] > 2 {
				add(func(c *Scenario) { c.ProdGrid[d] /= 2 })
			}
		}
	}
	for d := range sc.ConsGrid {
		if sc.ConsGrid[d] > 1 {
			d := d
			add(func(c *Scenario) { c.ConsGrid[d] = 1 })
			if sc.ConsGrid[d] > 2 {
				add(func(c *Scenario) { c.ConsGrid[d] /= 2 })
			}
		}
	}

	// Drop the last dimension entirely.
	if len(sc.Domain) > 1 {
		add(func(c *Scenario) {
			n := len(c.Domain) - 1
			c.Domain = c.Domain[:n]
			c.ProdGrid = c.ProdGrid[:n]
			c.ConsGrid = c.ConsGrid[:n]
			if c.ProdBlock != nil {
				c.ProdBlock = c.ProdBlock[:n]
			}
			if c.ConsBlock != nil {
				c.ConsBlock = c.ConsBlock[:n]
			}
		})
	}

	// Shrink domain extents, keeping each at least as large as the grids
	// that partition it (Validate would reject those anyway; this just
	// avoids generating obviously dead candidates).
	for d := range sc.Domain {
		floor := sc.ProdGrid[d]
		if sc.ConsGrid[d] > floor {
			floor = sc.ConsGrid[d]
		}
		if half := sc.Domain[d] / 2; half >= floor && half < sc.Domain[d] {
			d := d
			add(func(c *Scenario) { c.Domain[d] /= 2 })
		}
		if sc.Domain[d]-1 >= floor {
			d := d
			add(func(c *Scenario) { c.Domain[d]-- })
		}
	}

	// Shrink the machine.
	if sc.Nodes > 1 {
		add(func(c *Scenario) { c.Nodes-- })
	}
	if sc.CoresPerNode > 1 {
		add(func(c *Scenario) { c.CoresPerNode-- })
	}
	return out
}
