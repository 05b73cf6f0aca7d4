package apps

import (
	"errors"
	"fmt"

	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/runtime"
)

// Streaming applications (DESIGN §5i): a producer that publishes a
// bounded-lag stream of versions instead of lock-step iterations, and a
// consumer that follows the stream through a cursor. They are what
// codsrun registers under -stream and what the streaming chaos suite
// drives across a node kill.

// StreamProducerIndexBase returns the producer index of rank's first
// owned piece: the stream stamps one monotone version sequence per
// published block, so a rank owning several pieces publishes each through
// its own index, and indices are assigned densely in rank-major, piece
// order. The stream's declared producer count is StreamProducerIndexBase
// of one-past-the-last rank.
func StreamProducerIndexBase(ctx *runtime.AppContext, rank int) int {
	base := 0
	for r := 0; r < rank; r++ {
		base += len(ctx.Decomp.Region(r))
	}
	return base
}

// StreamProducerConfig parameterizes a stream-publishing application.
type StreamProducerConfig struct {
	// Var is the declared stream variable written.
	Var string
	// Rounds is the number of versions each producer index publishes.
	Rounds int
	// Halo enables a stencil exchange of this width before every publish.
	Halo int
}

// NewStreamProducer builds the producer subroutine: per round it performs
// its stencil exchange, declares the bundle's reading tasks (those of the
// other applications, ctx.Producers, that own part of the domain) readers
// of the version, then publishes every owned piece of the coupled domain as
// the next version of its piece's producer index. A version thus retires
// once every reading task's cursor passed it, however late a task
// subscribes. Version content is the deterministic CellValue fill, so
// consumers verify end to end. When its rounds are done the task closes
// its producer indices, ending the stream once every rank has.
func NewStreamProducer(cfg StreamProducerConfig) runtime.AppFunc {
	return func(ctx *runtime.AppContext) (err error) {
		rounds := cfg.Rounds
		if rounds <= 0 {
			rounds = 1
		}
		readers := 0
		for _, info := range ctx.Producers {
			for r := 0; r < info.Decomp.NumTasks(); r++ {
				if len(info.Decomp.Region(r)) > 0 {
					readers++
				}
			}
		}
		base := StreamProducerIndexBase(ctx, ctx.Rank)
		pieces := ctx.Decomp.Region(ctx.Rank)
		// A producer that fails must still end its share of the stream —
		// consumers blocked on the watermark would otherwise wait forever
		// for versions that will never complete.
		defer func() {
			if err == nil {
				return
			}
			for i := range pieces {
				_ = ctx.Space.ClosePublisher(cfg.Var, base+i)
			}
		}()
		for round := 0; round < rounds; round++ {
			ctx.Space.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, round))
			ctx.Comm.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, round))
			if err := HaloExchange(ctx, cfg.Halo); err != nil {
				return err
			}
			ctx.Space.SetPhase(fmt.Sprintf("publish:%d:%d", ctx.AppID, round))
			if readers > 0 {
				if err := ctx.Space.DeclareReaders(cfg.Var, round, readers); err != nil {
					return err
				}
			}
			for i, blk := range pieces {
				ver, err := ctx.Space.Publish(cfg.Var, base+i, blk, FillRegion(blk, round))
				if err != nil {
					return fmt.Errorf("apps: app %d rank %d publish round %d: %w",
						ctx.AppID, ctx.Rank, round, err)
				}
				if ver != round {
					return fmt.Errorf("apps: app %d rank %d piece %d stamped version %d, want %d",
						ctx.AppID, ctx.Rank, i, ver, round)
				}
			}
		}
		for i := range pieces {
			if err := ctx.Space.ClosePublisher(cfg.Var, base+i); err != nil {
				return err
			}
		}
		return nil
	}
}

// StreamConsumerConfig parameterizes a stream-following application.
type StreamConsumerConfig struct {
	// Var is the declared stream variable read.
	Var string
	// Rounds is the number of versions the stream carries: a task that
	// fails releases those it will not read.
	Rounds int
	// Halo enables a stencil exchange of this width after every consumed
	// version.
	Halo int
	// Verify checks every retrieved version cell by cell.
	Verify bool
	// Quiet suppresses the per-task summary line.
	Quiet bool
}

// NewStreamConsumer builds the consumer subroutine: the task subscribes a
// cursor, then follows the stream one version at a time — window-read its
// owned regions, verify, acknowledge — until the producers close. Each
// acknowledgment releases the version (NewStreamProducer declares the task
// a reader), and a task that fails releases every version it will not
// read, so no version waits on it. Under the drop-oldest policy a slow
// task's cursor can be bumped mid-read; the task then resumes at the bumped
// position, counting the skipped versions as gaps. At the end it prints one
// summary line per task,
//
//	stream consumer <app>.<rank> observed <n> versions [<lo>..<hi>] gaps <g>
//
// which the chaos suite parses: under backpressure the sequence must be
// gap-free even across a mid-stream node replacement.
func NewStreamConsumer(cfg StreamConsumerConfig) runtime.AppFunc {
	return func(ctx *runtime.AppContext) (err error) {
		regions := ctx.Decomp.Region(ctx.Rank)
		// A rank owning nothing neither reads nor subscribes — an idle
		// cursor would throttle the producers forever — and is no reader.
		var cur *cods.Cursor
		defer func() {
			unread := 0
			if cur != nil {
				unread = cur.Pos()
				cur.Close()
			}
			for ; err != nil && len(regions) > 0 && unread < cfg.Rounds; unread++ {
				_ = ctx.Space.Release(cfg.Var, unread)
			}
		}()
		if len(regions) > 0 {
			if cur, err = ctx.Space.Subscribe(cfg.Var); err != nil {
				return err
			}
		}
		// Every rank meets the app's others before the first read: the
		// producer waits only on subscribed cursors, so a rank reading
		// before its peers subscribed would let it run ahead, retaining
		// every version for the peers' release.
		if err := ctx.Comm.Barrier(); err != nil {
			return err
		}
		if cur == nil {
			if !cfg.Quiet {
				fmt.Printf("stream consumer %d.%d observed 0 versions [] gaps 0\n", ctx.AppID, ctx.Rank)
			}
			return nil
		}
		first, last, observed, gaps := -1, -1, 0, 0
		for {
			ctx.Space.SetPhase(fmt.Sprintf("couple:%d:%d", ctx.AppID, cur.Pos()))
			pos, bumped, ended, err := consumeStreamVersion(ctx, cfg, cur, regions)
			if err != nil {
				return err
			}
			if ended {
				break
			}
			if bumped {
				continue // cursor moved mid-read; retry at the new position
			}
			if first < 0 {
				first = pos
			} else if pos != last+1 {
				gaps += pos - last - 1
			}
			last = pos
			observed++
			ctx.Space.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, pos))
			ctx.Comm.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, pos))
			if err := HaloExchange(ctx, cfg.Halo); err != nil {
				return err
			}
		}
		if !cfg.Quiet {
			span := "[]"
			if observed > 0 {
				span = fmt.Sprintf("[%d..%d]", first, last)
			}
			fmt.Printf("stream consumer %d.%d observed %d versions %s gaps %d\n",
				ctx.AppID, ctx.Rank, observed, span, gaps)
		}
		return nil
	}
}

// consumeStreamVersion reads and acknowledges the version at the cursor's
// position across all of the task's regions. It reports the version
// consumed, or that the cursor was bumped past it mid-read (drop-oldest),
// or that the stream ended before the version completed.
func consumeStreamVersion(ctx *runtime.AppContext, cfg StreamConsumerConfig,
	cur *cods.Cursor, regions []geometry.BBox) (pos int, bumped, ended bool, err error) {
	pos = cur.Pos()
	for _, region := range regions {
		window, err := cur.GetWindow(region, pos, pos)
		if errors.Is(err, cods.ErrStreamEnded) {
			return pos, false, true, nil
		}
		if err != nil {
			if cur.Pos() > pos {
				return pos, true, false, nil
			}
			return pos, false, false, err
		}
		if cfg.Verify {
			if verr := VerifyRegion(region, pos, window[0]); verr != nil {
				return pos, false, false, fmt.Errorf("apps: app %d rank %d v%d: %w",
					ctx.AppID, ctx.Rank, pos, verr)
			}
		}
	}
	if err := cur.Advance(pos + 1); err != nil {
		if cur.Pos() > pos {
			return pos, true, false, nil
		}
		return pos, false, false, err
	}
	return pos, false, false, nil
}
