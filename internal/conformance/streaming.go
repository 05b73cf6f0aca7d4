package conformance

// Streaming conformance (DESIGN §5i): scenarios with Stream set run the
// bounded-lag publish/subscribe coupling instead of lock-step iterations
// and are checked against the versioned stream reference (refStream).
//
// Two execution modes mirror the two lag policies:
//
//   - Drop-oldest runs lock-step: every producer publishes round r, then
//     the consumers read and acknowledge on their stride. Forced
//     retirements, cursor bumps and mid-stream resubscribes are therefore
//     deterministic, and the runner mirrors every operation into a
//     refStream, comparing bytes, stamped versions, watermarks,
//     floors, cursor positions and the published/consumed/dropped
//     accounting after every step.
//
//   - Backpressure runs free: producer and consumer goroutines race, the
//     producers throttled only by the stream's own lag bound. The model is
//     not safe for concurrent use, so bytes are compared against the pure
//     scenario fill and the deterministic end state (fully consumed,
//     nothing dropped, everything retired) is checked analytically, with
//     the flow prediction rebuilt sequentially afterwards.
//
// In both modes retirement is verified through the lookup (checkOwners):
// retired versions must have no DHT records left, retained versions must
// answer with exactly the model's owner set.

import (
	"errors"
	"fmt"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/graph"
	"github.com/insitu/cods/internal/mapping"
)

// publisher is one (producer rank, owned piece) pair. The stream layer
// stamps one block per producer index per version, so a rank owning
// several pieces publishes each through its own index; the stream version
// is still complete only once every piece of it is staged.
type publisher struct {
	h     *cods.Handle
	idx   int
	rank  int
	piece geometry.BBox
}

// runStreaming executes a streaming scenario: producers placed like a
// sequential stage publish sc.Rounds versions of the single stream
// variable and the consumers follow through bounded-lag cursors.
func runStreaming(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	prodApp, consApp graph.App, model *refModel, pred *predictor) error {
	v := sc.varNames()[0]
	prod, cons := prodApp.Decomp, consApp.Decomp
	prodPl, err := mapping.Consecutive(machine, []graph.App{prodApp}, nil)
	if err != nil {
		return err
	}
	consPl, err := placeSequentialConsumer(sc, machine, space, consApp)
	if err != nil {
		return err
	}

	var pubs []*publisher
	for r := 0; r < prod.NumTasks(); r++ {
		core := prodPl.MustCoreOf(cluster.TaskID{App: prodAppID, Rank: r})
		h := space.HandleAt(core, prodAppID, "stream")
		for _, piece := range prod.Region(r) {
			pubs = append(pubs, &publisher{h: h, idx: len(pubs), rank: r, piece: piece})
		}
	}
	policy := cods.Backpressure
	if sc.Drop {
		policy = cods.DropOldest
	}
	if err := space.DeclareStream(v, cods.StreamConfig{
		Producers: len(pubs), MaxLag: sc.MaxLag, Policy: policy,
	}); err != nil {
		return err
	}
	// A block-cyclic rank can own nothing; it neither reads nor subscribes
	// (an idle cursor would throttle the producers forever under
	// backpressure). At least one rank owns data — the decomposition
	// covers the domain. The others are declared readers of every
	// version, as codsrun -stream declares its consumer tasks, so each
	// cursor's advance is a release.
	var consumers []*consumer
	for _, c := range newConsumers(sc, space, consPl, cons) {
		if len(c.regions) > 0 {
			consumers = append(consumers, c)
		}
	}

	// reads counts the gets each consumer makes of each of its regions.
	run, reads := runStreamConcurrent, 0
	if sc.Drop {
		run = runStreamLockstep
	}
	if err := run(sc, opts, machine, space, v, pubs, consumers, cons, model, pred, &reads); err != nil {
		return err
	}
	return checkInvariants(sc, opts, machine, space, pred, consumers, prodPl, consPl, prodApp, consApp, reads)
}

// checkStreamEnd asserts the real stream and the model agree on the
// per-version accounting, the final watermark and the floor.
func checkStreamEnd(sc Scenario, v string, space *cods.Space, ms *refStream) error {
	published, consumed, dropped := space.StreamStats()
	mp, mc, md := ms.Stats()
	if published != mp || consumed != mc || dropped != md {
		return fmt.Errorf("conformance: stream stats published/consumed/dropped = %d/%d/%d, model says %d/%d/%d\n%s",
			published, consumed, dropped, mp, mc, md, sc.GoLiteral())
	}
	return checkStreamSync(sc, v, space, nil, nil, ms)
}

// runStreamLockstep drives a drop-oldest scenario one round at a time,
// mirroring every operation into the stream reference model.
func runStreamLockstep(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	v string, pubs []*publisher, consumers []*consumer, cons *decomp.Decomposition,
	model *refModel, pred *predictor, reads *int) error {
	ms := newRefStream(model, v, len(pubs), sc.MaxLag, true)

	// Subscribe in rank order so real and model subscriber ids stay
	// aligned for the rest of the run.
	curs := make([]*cods.Cursor, len(consumers))
	ids := make([]int, len(consumers))
	for i, c := range consumers {
		cur, err := c.h.Subscribe(v)
		if err != nil {
			return err
		}
		id, mpos := ms.Subscribe(0)
		if cur.ID() != id || cur.Pos() != mpos {
			return fmt.Errorf("conformance: stream %q: cursor %d subscribed as id %d pos %d, model says id %d pos %d\n%s",
				v, i, cur.ID(), cur.Pos(), id, mpos, sc.GoLiteral())
		}
		curs[i], ids[i] = cur, id
	}

	// A mid-stream kill lands at the half-way round (loseNode): on the TCP
	// leg the node's serving process is lost and replaced in its slot, the
	// reconcile re-stages its retained blocks from the staged table — whose
	// records stay valid because the replacement serves the same cores —
	// and publishing continues.
	killAt := -1
	if sc.Kill != 0 {
		killAt = sc.Rounds / 2
	}

	for r := 0; r < sc.Rounds; r++ {
		if r == killAt {
			pred.voidOwned(sc, model, func(owner cluster.CoreID) bool {
				return machine.NodeOf(owner) == cluster.NodeID(sc.Kill-1)
			})
			if err := loseNode(sc, opts, machine, space, cons, model, ms.Latest()+1); err != nil {
				return err
			}
		}

		if err := runTasks(len(pubs), func(i int) error {
			p := pubs[i]
			if err := p.h.DeclareReaders(v, r, len(consumers)); err != nil {
				return err
			}
			ver, err := p.h.Publish(v, p.idx, p.piece, sc.fillRegion(v, r, p.piece))
			if err != nil {
				return fmt.Errorf("conformance: publisher %d publish round %d %v: %w\n%s",
					p.idx, r, p.piece, err, sc.GoLiteral())
			}
			if ver != r {
				return fmt.Errorf("conformance: publisher %d stamped version %d in round %d\n%s",
					p.idx, ver, r, sc.GoLiteral())
			}
			return nil
		}); err != nil {
			return err
		}
		for _, p := range pubs {
			mver, err := ms.Publish(p.idx, p.piece, int(p.h.Core()), sc.fillRegion(v, r, p.piece))
			if err != nil {
				return err
			}
			if mver != r {
				return fmt.Errorf("conformance: model stamped version %d in round %d", mver, r)
			}
		}
		if err := checkStreamSync(sc, v, space, curs, ids, ms); err != nil {
			return fmt.Errorf("after publish round %d: %w", r, err)
		}

		if sc.Resub != 0 && r+1 == sc.Resub {
			// Close every cursor and resume it from its last position,
			// exercising the mid-stream SubscribeFrom path.
			for i := range curs {
				pos := curs[i].Pos()
				if err := curs[i].Close(); err != nil {
					return err
				}
				if err := ms.Close(ids[i]); err != nil {
					return err
				}
				cur, err := consumers[i].h.SubscribeFrom(v, pos)
				if err != nil {
					return err
				}
				id, mpos := ms.Subscribe(pos)
				if cur.ID() != id || cur.Pos() != mpos {
					return fmt.Errorf("conformance: stream %q: cursor %d resubscribed from %d at id %d pos %d, model says id %d pos %d\n%s",
						v, i, pos, cur.ID(), cur.Pos(), id, mpos, sc.GoLiteral())
				}
				curs[i], ids[i] = cur, id
			}
		}

		if (r+1)%sc.ConsumeEvery == 0 || r == sc.Rounds-1 {
			if err := consumeStreamStride(sc, opts, v, consumers, curs, ids, ms, model, pred, r, reads); err != nil {
				return err
			}
			if err := checkStreamSync(sc, v, space, curs, ids, ms); err != nil {
				return fmt.Errorf("after consume round %d: %w", r, err)
			}
		}
	}

	for _, p := range pubs {
		if err := space.ClosePublisher(v, p.idx); err != nil {
			return err
		}
		ms.ClosePublisher(p.idx)
	}
	// A window past the final watermark must fail with ErrStreamEnded, not
	// block forever.
	if len(curs) > 0 && len(consumers[0].regions) > 0 {
		pos := curs[0].Pos()
		if _, err := curs[0].GetWindow(consumers[0].regions[0], pos, sc.Rounds); !errors.Is(err, cods.ErrStreamEnded) {
			return fmt.Errorf("conformance: window past final watermark: err = %v, want ErrStreamEnded\n%s",
				err, sc.GoLiteral())
		}
	}
	for i := range curs {
		if err := curs[i].Close(); err != nil {
			return err
		}
		if err := ms.Close(ids[i]); err != nil {
			return err
		}
	}

	if err := checkStreamEnd(sc, v, space, ms); err != nil {
		return err
	}
	return checkOwners(sc, machine, space, cons, model, ms.Latest()+1, -1)
}

// consumeStreamStride runs one lock-step consume: every cursor reads the
// window from its position to the watermark, reads the latest value while
// older versions are still retained, then acknowledges everything read.
// Consumers run sequentially so retirements land at deterministic points.
func consumeStreamStride(sc Scenario, opts Options, v string, consumers []*consumer,
	curs []*cods.Cursor, ids []int, ms *refStream, model *refModel,
	pred *predictor, r int, reads *int) error {
	if from, _ := ms.Pos(ids[0]); from <= ms.Latest() { // the cursors move in step
		*reads += ms.Latest() - from + 2 // the window, then the latest value
	}
	for i, c := range consumers {
		cur := curs[i]
		latest := cur.Latest()
		if mlatest := ms.Latest(); latest != mlatest {
			return fmt.Errorf("conformance: stream %q watermark = %d, model says %d\n%s",
				v, latest, mlatest, sc.GoLiteral())
		}
		from := cur.Pos()
		if mpos, err := ms.Pos(ids[i]); err != nil || mpos != from {
			return fmt.Errorf("conformance: stream %q cursor %d at %d, model says %d (%v)\n%s",
				v, i, from, mpos, err, sc.GoLiteral())
		}
		order := rotate(len(c.regions), sc.Seed, c.rank)
		if from <= latest {
			for _, ri := range order {
				region := c.regions[ri]
				win, err := cur.GetWindow(region, from, latest)
				if err != nil {
					return fmt.Errorf("conformance: rank %d window %q [%d,%d] %v: %w\n%s",
						c.rank, v, from, latest, region, err, sc.GoLiteral())
				}
				for k := range win {
					ver := from + k
					got := win[k]
					want, err := model.Get(v, ver, region)
					if err != nil {
						return fmt.Errorf("conformance: model get %q v%d %v: %w\n%s", v, ver, region, err, sc.GoLiteral())
					}
					if opts.CorruptGet && c.rank == 0 && ri == 0 && ver == 0 {
						got[0]++ // forced divergence for the shrinking tests
					}
					if opts.stats != nil {
						opts.stats.recordGet(getKey(c.rank, v, ver, 0, region), got)
					}
					for j := range want {
						if got[j] != want[j] {
							return fmt.Errorf("conformance: rank %d %q v%d %v: cell %d = %v, model says %v\n%s",
								c.rank, v, ver, region, j, got[j], want[j], sc.GoLiteral())
						}
					}
					pred.addGet(model, v, ver, region, c.h.Core())
				}
			}
			// Latest-value reads before acknowledging: the floor is still
			// below the watermark here, so a stale watermark would serve a
			// version that is retained — and detectably wrong.
			for _, ri := range order {
				region := c.regions[ri]
				got, ver, err := cur.GetLatest(region)
				if err != nil {
					return fmt.Errorf("conformance: rank %d latest %q %v: %w\n%s",
						c.rank, v, region, err, sc.GoLiteral())
				}
				mver := ms.Latest()
				want, err := model.Get(v, mver, region)
				if err != nil {
					return err
				}
				if ver != mver {
					return fmt.Errorf("conformance: rank %d latest %q %v served v%d, model says v%d\n%s",
						c.rank, v, region, ver, mver, sc.GoLiteral())
				}
				if opts.stats != nil {
					opts.stats.recordGet(getKey(c.rank, v, ver, -(r+1), region), got)
				}
				for j := range want {
					if got[j] != want[j] {
						return fmt.Errorf("conformance: rank %d latest %q v%d %v: cell %d = %v, model says %v\n%s",
							c.rank, v, ver, region, j, got[j], want[j], sc.GoLiteral())
					}
				}
				pred.addGet(model, v, ver, region, c.h.Core())
			}
		}
		if err := cur.Advance(latest + 1); err != nil {
			return fmt.Errorf("conformance: rank %d advance %q to %d: %w\n%s",
				c.rank, v, latest+1, err, sc.GoLiteral())
		}
		if err := ms.Advance(ids[i], latest+1); err != nil {
			return err
		}
	}
	return nil
}

// runStreamConcurrent drives a backpressure scenario in runConcurrent's
// shape: the model is filled up front (every version published into the
// stream mirror, every get predicted), producer and consumer goroutines
// race, throttled only by the stream's own lag bound, and compare bytes
// against the model, which nobody writes while they run. The mirror's
// cursors then follow to the end, and the end state is compared.
func runStreamConcurrent(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	v string, pubs []*publisher, consumers []*consumer, cons *decomp.Decomposition,
	model *refModel, pred *predictor, reads *int) error {
	ms := newRefStream(model, v, len(pubs), sc.MaxLag, false)
	for r := 0; r < sc.Rounds; r++ {
		for _, p := range pubs {
			if _, err := ms.Publish(p.idx, p.piece, int(p.h.Core()), sc.fillRegion(v, r, p.piece)); err != nil {
				return err
			}
		}
	}
	// Every cursor reads every version of its regions once, then the final
	// version once more as the latest value.
	*reads = sc.Rounds + 1
	for _, c := range consumers {
		for _, region := range c.regions {
			for ver := 0; ver < *reads; ver++ {
				pred.addGet(model, v, min(ver, sc.Rounds-1), region, c.h.Core())
			}
		}
	}
	// All cursors subscribe before the first publish so the lag bound
	// constrains the producers from version zero.
	curs := make([]*cods.Cursor, len(consumers))
	ids := make([]int, len(consumers))
	for i, c := range consumers {
		cur, err := c.h.Subscribe(v)
		if err != nil {
			return err
		}
		curs[i] = cur
		ids[i], _ = ms.Subscribe(0)
	}

	produce := func(i int) error {
		p := pubs[i]
		for r := 0; r < sc.Rounds; r++ {
			err := p.h.DeclareReaders(v, r, len(consumers))
			ver := r
			if err == nil {
				ver, err = p.h.Publish(v, p.idx, p.piece, sc.fillRegion(v, r, p.piece))
			}
			if err != nil || ver != r {
				// Close the sequence so blocked consumers fail with
				// ErrStreamEnded instead of hanging.
				space.ClosePublisher(v, p.idx)
				return fmt.Errorf("conformance: publisher %d round %d %v stamped v%d: %v\n%s",
					p.idx, r, p.piece, ver, err, sc.GoLiteral())
			}
		}
		return space.ClosePublisher(v, p.idx)
	}
	// check compares one read against the model.
	check := func(c *consumer, ri, ver, round int, got []float64) error {
		region := c.regions[ri]
		if opts.CorruptGet && c.rank == 0 && ri == 0 && ver == 0 && round == 0 {
			got[0]++ // forced divergence for the shrinking tests
		}
		if opts.stats != nil {
			opts.stats.recordGet(getKey(c.rank, v, ver, round, region), got)
		}
		want, err := model.Get(v, ver, region)
		if err != nil {
			return err
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("conformance: rank %d %q v%d %v: cell %d = %v, model says %v\n%s",
					c.rank, v, ver, region, j, got[j], want[j], sc.GoLiteral())
			}
		}
		return nil
	}
	consume := func(i int) (err error) {
		c, cur := consumers[i], curs[i]
		defer func() {
			if err != nil {
				cur.Close() // unblock producers constrained by this cursor
			}
		}()
		order := rotate(len(c.regions), sc.Seed, c.rank)
		for r := 0; r < sc.Rounds; r++ {
			for _, ri := range order {
				win, err := cur.GetWindow(c.regions[ri], r, r)
				if err != nil {
					return fmt.Errorf("conformance: rank %d window %q [%d,%d] %v: %w\n%s",
						c.rank, v, r, r, c.regions[ri], err, sc.GoLiteral())
				}
				if err := check(c, ri, r, 0, win[0]); err != nil {
					return err
				}
			}
			// Hold back the final acknowledgment: the last version must
			// stay retained for the latest-value read below.
			if r < sc.Rounds-1 {
				if err := cur.Advance(r + 1); err != nil {
					return fmt.Errorf("conformance: rank %d advance %q to %d: %w\n%s",
						c.rank, v, r+1, err, sc.GoLiteral())
				}
			}
		}
		for _, ri := range order {
			got, ver, err := cur.GetLatest(c.regions[ri])
			if err == nil && ver != sc.Rounds-1 {
				err = fmt.Errorf("served v%d, want v%d", ver, sc.Rounds-1)
			}
			if err != nil {
				return fmt.Errorf("conformance: rank %d latest %q %v: %w\n%s",
					c.rank, v, c.regions[ri], err, sc.GoLiteral())
			}
			if err := check(c, ri, ver, -1, got); err != nil {
				return err
			}
		}
		if err := cur.Advance(sc.Rounds); err != nil {
			return fmt.Errorf("conformance: rank %d final advance %q: %w\n%s", c.rank, v, err, sc.GoLiteral())
		}
		return cur.Close()
	}

	perr := make(chan error, 1)
	go func() { perr <- runTasks(len(pubs), produce) }()
	cerr := runTasks(len(consumers), func(i int) error { return consume(i) })
	if err := <-perr; err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}

	// The mirror's cursors follow to the end: every version acknowledged
	// by every cursor retires, and the DHT must hold no record of any.
	for _, p := range pubs {
		ms.ClosePublisher(p.idx)
	}
	for _, id := range ids {
		if err := ms.Advance(id, sc.Rounds); err != nil {
			return err
		}
		if err := ms.Close(id); err != nil {
			return err
		}
	}
	if err := checkStreamEnd(sc, v, space, ms); err != nil {
		return err
	}
	return checkOwners(sc, machine, space, cons, model, sc.Rounds, -1)
}

// checkStreamSync asserts the real stream and the model agree on the
// watermark, the retained floor and every cursor position.
func checkStreamSync(sc Scenario, v string, space *cods.Space,
	curs []*cods.Cursor, ids []int, ms *refStream) error {
	latest, floor, err := space.StreamState(v)
	if err != nil {
		return err
	}
	if latest != ms.Latest() || floor != ms.Floor() {
		return fmt.Errorf("conformance: stream %q latest/floor = %d/%d, model says %d/%d\n%s",
			v, latest, floor, ms.Latest(), ms.Floor(), sc.GoLiteral())
	}
	for i, cur := range curs {
		mpos, err := ms.Pos(ids[i])
		if err != nil {
			return err
		}
		if pos := cur.Pos(); pos != mpos {
			return fmt.Errorf("conformance: stream %q cursor %d at %d, model says %d\n%s",
				v, i, pos, mpos, sc.GoLiteral())
		}
	}
	return nil
}
