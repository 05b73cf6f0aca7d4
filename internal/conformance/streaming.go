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
	"github.com/insitu/cods/internal/membership"
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
	ledger *membership.Ledger, prodApp, consApp graph.App, model *refModel, pred *predictor) error {
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
	// covers the domain.
	var consumers []*consumer
	for _, c := range newConsumers(sc, space, consPl, cons) {
		if len(c.regions) > 0 {
			consumers = append(consumers, c)
		}
	}

	if sc.Drop {
		return runStreamLockstep(sc, opts, machine, space, ledger, v, pubs, consumers, cons, model, pred)
	}
	return runStreamConcurrent(sc, opts, machine, space, v, pubs, consumers, cons, model, pred)
}

// runStreamLockstep drives a drop-oldest scenario one round at a time,
// mirroring every operation into the stream reference model.
func runStreamLockstep(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	ledger *membership.Ledger, v string, pubs []*publisher, consumers []*consumer, cons *decomp.Decomposition,
	model *refModel, pred *predictor) error {
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
	// reconcile re-stages its retained blocks from the ledger — the stream
	// layer's block records stay valid because the replacement serves the
	// same cores — and publishing continues.
	killAt := -1
	if sc.Kill != 0 {
		killAt = sc.Rounds / 2
	}

	for r := 0; r < sc.Rounds; r++ {
		if r == killAt {
			if err := loseNode(sc, opts, machine, space, ledger, cons, model, ms.Latest()+1); err != nil {
				return err
			}
		}

		if err := runTasks(len(pubs), func(i int) error {
			p := pubs[i]
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
			if err := consumeStreamStride(sc, opts, v, consumers, curs, ids, ms, model, pred, r); err != nil {
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

	published, consumed, dropped := space.StreamStats()
	mp, mc, md := ms.Stats()
	if published != mp || consumed != mc || dropped != md {
		return fmt.Errorf("conformance: stream stats published/consumed/dropped = %d/%d/%d, model says %d/%d/%d\n%s",
			published, consumed, dropped, mp, mc, md, sc.GoLiteral())
	}
	if err := checkOwners(sc, machine, space, cons, model, ms.Latest()+1, -1); err != nil {
		return err
	}
	return checkFlowAccounting(sc, opts, machine, space, pred)
}

// consumeStreamStride runs one lock-step consume: every cursor reads the
// window from its position to the watermark, reads the latest value while
// older versions are still retained, then acknowledges everything read.
// Consumers run sequentially so retirements land at deterministic points.
func consumeStreamStride(sc Scenario, opts Options, v string, consumers []*consumer,
	curs []*cods.Cursor, ids []int, ms *refStream, model *refModel,
	pred *predictor, r int) error {
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
				mwin, err := ms.GetWindow(ids[i], region, from, latest)
				if err != nil {
					return fmt.Errorf("conformance: model window %q [%d,%d] %v: %w\n%s",
						v, from, latest, region, err, sc.GoLiteral())
				}
				for k := range win {
					ver := from + k
					got, want := win[k], mwin[k]
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
				want, mver, err := ms.GetLatest(region)
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

// runStreamConcurrent drives a backpressure scenario with racing producer
// and consumer goroutines. Bytes are compared against the pure scenario
// fill (the model is not safe for concurrent use); the deterministic end
// state — every version published, consumed by every cursor, nothing
// dropped, everything retired — is checked afterwards, and the flow
// prediction is rebuilt sequentially from the static placement.
func runStreamConcurrent(sc Scenario, opts Options, machine *cluster.Machine, space *cods.Space,
	v string, pubs []*publisher, consumers []*consumer, cons *decomp.Decomposition,
	model *refModel, pred *predictor) error {
	// All cursors subscribe before the first publish so the lag bound
	// constrains the producers from version zero.
	curs := make([]*cods.Cursor, len(consumers))
	for i, c := range consumers {
		cur, err := c.h.Subscribe(v)
		if err != nil {
			return err
		}
		curs[i] = cur
	}

	produce := func(i int) error {
		p := pubs[i]
		for r := 0; r < sc.Rounds; r++ {
			ver, err := p.h.Publish(v, p.idx, p.piece, sc.fillRegion(v, r, p.piece))
			if err != nil {
				// Close the sequence so blocked consumers fail with
				// ErrStreamEnded instead of hanging.
				space.ClosePublisher(v, p.idx)
				return fmt.Errorf("conformance: publisher %d publish round %d %v: %w\n%s",
					p.idx, r, p.piece, err, sc.GoLiteral())
			}
			if ver != r {
				space.ClosePublisher(v, p.idx)
				return fmt.Errorf("conformance: publisher %d stamped version %d in round %d\n%s",
					p.idx, ver, r, sc.GoLiteral())
			}
		}
		return space.ClosePublisher(v, p.idx)
	}
	consume := func(i int) (err error) {
		c := consumers[i]
		cur := curs[i]
		defer func() {
			if err != nil {
				cur.Close() // unblock producers constrained by this cursor
			}
		}()
		order := rotate(len(c.regions), sc.Seed, c.rank)
		for r := 0; r < sc.Rounds; r++ {
			for _, ri := range order {
				region := c.regions[ri]
				win, err := cur.GetWindow(region, r, r)
				if err != nil {
					return fmt.Errorf("conformance: rank %d window %q [%d,%d] %v: %w\n%s",
						c.rank, v, r, r, region, err, sc.GoLiteral())
				}
				got := win[0]
				if opts.CorruptGet && c.rank == 0 && ri == 0 && r == 0 {
					got[0]++ // forced divergence for the shrinking tests
				}
				if opts.stats != nil {
					opts.stats.recordGet(getKey(c.rank, v, r, 0, region), got)
				}
				want := sc.fillRegion(v, r, region)
				for j := range want {
					if got[j] != want[j] {
						return fmt.Errorf("conformance: rank %d %q v%d %v: cell %d = %v, fill says %v\n%s",
							c.rank, v, r, region, j, got[j], want[j], sc.GoLiteral())
					}
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
			region := c.regions[ri]
			got, ver, err := cur.GetLatest(region)
			if err != nil {
				return fmt.Errorf("conformance: rank %d latest %q %v: %w\n%s",
					c.rank, v, region, err, sc.GoLiteral())
			}
			if ver != sc.Rounds-1 {
				return fmt.Errorf("conformance: rank %d latest %q served v%d, want v%d\n%s",
					c.rank, v, ver, sc.Rounds-1, sc.GoLiteral())
			}
			if opts.stats != nil {
				opts.stats.recordGet(getKey(c.rank, v, ver, -1, region), got)
			}
			want := sc.fillRegion(v, ver, region)
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("conformance: rank %d latest %q v%d %v: cell %d = %v, fill says %v\n%s",
						c.rank, v, ver, region, j, got[j], want[j], sc.GoLiteral())
				}
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

	// End state: every version complete, acknowledged by every cursor,
	// nothing dropped, everything retired.
	published, consumed, dropped := space.StreamStats()
	wantPub := int64(len(pubs) * sc.Rounds)
	wantCon := int64(len(consumers) * sc.Rounds)
	if published != wantPub || consumed != wantCon || dropped != 0 {
		return fmt.Errorf("conformance: stream stats published/consumed/dropped = %d/%d/%d, want %d/%d/0\n%s",
			published, consumed, dropped, wantPub, wantCon, sc.GoLiteral())
	}
	latest, floor, err := space.StreamState(v)
	if err != nil {
		return err
	}
	if latest != sc.Rounds-1 || floor != sc.Rounds {
		return fmt.Errorf("conformance: stream end state latest/floor = %d/%d, want %d/%d\n%s",
			latest, floor, sc.Rounds-1, sc.Rounds, sc.GoLiteral())
	}

	// Ownership never changes under backpressure, so the flow prediction
	// is rebuilt sequentially: every cursor read every version of its
	// regions once, plus one latest-value read of the final version.
	for ver := 0; ver < sc.Rounds; ver++ {
		for _, p := range pubs {
			if err := model.Put(v, ver, p.piece, int(p.h.Core()), sc.fillRegion(v, ver, p.piece)); err != nil {
				return err
			}
		}
	}
	for _, c := range consumers {
		for ver := 0; ver < sc.Rounds; ver++ {
			for _, region := range c.regions {
				pred.addGet(model, v, ver, region, c.h.Core())
			}
		}
		for _, region := range c.regions {
			pred.addGet(model, v, sc.Rounds-1, region, c.h.Core())
		}
	}
	// The run ended fully retired; mirror that and assert the DHT holds no
	// record of any version anywhere.
	for ver := 0; ver < sc.Rounds; ver++ {
		for _, p := range pubs {
			if err := model.Discard(v, ver, p.piece, int(p.h.Core())); err != nil {
				return err
			}
		}
	}
	if err := checkOwners(sc, machine, space, cons, model, sc.Rounds, -1); err != nil {
		return err
	}
	return checkFlowAccounting(sc, opts, machine, space, pred)
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
