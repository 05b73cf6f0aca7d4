// Package apps provides the synthetic data-parallel applications used by
// the examples and the evaluation harness. They reproduce the behaviour of
// the paper's testing workflow applications: CAP1/CAP2 (concurrently
// coupled producer and consumer) and SAP1/SAP2/SAP3 (a sequential
// producer and its two consumers), each optionally performing 2-D/3-D
// stencil-like near-neighbour exchanges to model intra-application
// communication (paper Section V). Beside them: a data-correct ghost
// exchange under a distributed Jacobi solver (halo.go, jacobi.go) and the
// in-situ analysis kernels two examples run as tasks (analysis.go).
package apps

import (
	"fmt"

	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/runtime"
)

// Coupling selects which pair of CoDS operators an application uses.
type Coupling int

// Coupling modes.
const (
	// Concurrent couples through direct producer-to-consumer transfers
	// (cods_put_cont / cods_get_cont).
	Concurrent Coupling = iota
	// Sequential stages data through the CoDS in-memory storage
	// (cods_put_seq / cods_get_seq).
	Sequential
)

// CellValue is the deterministic content of a domain cell at a version;
// consumers use it to verify retrieved data end to end.
func CellValue(p geometry.Point, version int) float64 {
	v := float64(version) * 1e9
	for _, x := range p {
		v = v*1000 + float64(x)
	}
	return v
}

// FillRegion materializes the row-major content of a region at a version.
func FillRegion(b geometry.BBox, version int) []float64 {
	data := make([]float64, b.Volume())
	i := 0
	b.Each(func(p geometry.Point) {
		data[i] = CellValue(p, version)
		i++
	})
	return data
}

// VerifyRegion checks that got is the row-major content of region at a
// version.
func VerifyRegion(region geometry.BBox, version int, got []float64) error {
	if int64(len(got)) != region.Volume() {
		return fmt.Errorf("apps: length %d != volume %d", len(got), region.Volume())
	}
	i := 0
	var err error
	region.Each(func(p geometry.Point) {
		if err == nil && got[i] != CellValue(p, version) {
			err = fmt.Errorf("apps: cell %v = %v, want %v", p, got[i], CellValue(p, version))
		}
		i++
	})
	return err
}

// HaloExchange performs one near-neighbour exchange: along every
// decomposed dimension the task swaps a halo slab of the given width with
// its +1 and -1 grid neighbours (periodic boundaries). The slab size is
// the task's face volume times the halo width; payload content is the
// task's boundary plane (representative bytes — the exchange is what the
// evaluation meters).
func HaloExchange(ctx *runtime.AppContext, halo int) error {
	if halo <= 0 {
		return nil
	}
	dc := ctx.Decomp
	grid := dc.Grid()
	coord := dc.GridCoord(ctx.Rank)
	vol := dc.OwnedVolume(ctx.Rank)
	for d := range grid {
		if grid[d] == 1 {
			continue
		}
		// Face volume along dimension d.
		var extent int64
		for _, iv := range dc.Intervals(d, coord[d], dc.Domain().Min[d], dc.Domain().Max[d]) {
			extent += int64(iv.Hi - iv.Lo)
		}
		if extent == 0 {
			continue
		}
		slab := make([]byte, (vol/extent)*int64(halo)*cods.ElemSize)
		up := append([]int(nil), coord...)
		up[d] = (coord[d] + 1) % grid[d]
		down := append([]int(nil), coord...)
		down[d] = (coord[d] - 1 + grid[d]) % grid[d]
		rUp, rDown := dc.RankOf(up), dc.RankOf(down)
		if rUp == ctx.Rank {
			continue // single neighbour wrap onto self
		}
		// Exchange with the +d neighbour, receive from -d, then the
		// reverse direction. Tags encode dimension and direction.
		if _, err := ctx.Comm.SendRecv(rUp, 2*d, slab, rDown, 2*d); err != nil {
			return fmt.Errorf("apps: halo +%d: %w", d, err)
		}
		if _, err := ctx.Comm.SendRecv(rDown, 2*d+1, slab, rUp, 2*d+1); err != nil {
			return fmt.Errorf("apps: halo -%d: %w", d, err)
		}
	}
	return nil
}

// ProducerConfig parameterizes a data-producing application.
type ProducerConfig struct {
	// Var is the CoDS variable written.
	Var string
	// Iterations is the number of coupling steps (versions 0..Iterations-1).
	Iterations int
	// Halo enables a stencil exchange of this width before every put.
	Halo int
	// Mode selects concurrent or sequential coupling operators.
	Mode Coupling
}

// NewProducer builds the producer subroutine: per iteration it performs
// its stencil exchange, then puts every owned block of the coupled domain
// into the space.
func NewProducer(cfg ProducerConfig) runtime.AppFunc {
	return func(ctx *runtime.AppContext) error {
		iters := cfg.Iterations
		if iters <= 0 {
			iters = 1
		}
		for version := 0; version < iters; version++ {
			ctx.Space.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, version))
			ctx.Comm.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, version))
			if err := HaloExchange(ctx, cfg.Halo); err != nil {
				return err
			}
			ctx.Space.SetPhase(fmt.Sprintf("put:%d:%d", ctx.AppID, version))
			for _, blk := range ctx.Decomp.Region(ctx.Rank) {
				data := FillRegion(blk, version)
				var err error
				if cfg.Mode == Concurrent {
					err = ctx.Space.PutConcurrent(cfg.Var, version, blk, data)
				} else {
					err = ctx.Space.PutSequential(cfg.Var, version, blk, data)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// ConsumerConfig parameterizes a data-consuming application.
type ConsumerConfig struct {
	// Var is the CoDS variable read.
	Var string
	// Producer is the application id of the concurrently coupled producer
	// (ignored for Sequential mode).
	Producer int
	// Iterations mirrors the producer's iteration count.
	Iterations int
	// Halo enables a stencil exchange of this width after every get.
	Halo int
	// Mode selects concurrent or sequential coupling operators.
	Mode Coupling
	// Verify checks the retrieved contents cell by cell.
	Verify bool
	// GhostWidth widens every retrieved region by a ghost margin (clipped
	// to the domain), so neighbouring consumer tasks pull overlapping
	// data — the access pattern of stencil consumers that read their halo
	// straight from the space instead of exchanging it.
	GhostWidth int
}

// NewConsumer builds the consumer subroutine: per iteration it retrieves
// the task's owned regions of the coupled domain from the space (directly
// from the producer in concurrent mode), optionally verifies them, then
// performs its stencil exchange.
func NewConsumer(cfg ConsumerConfig) runtime.AppFunc {
	return func(ctx *runtime.AppContext) error {
		iters := cfg.Iterations
		if iters <= 0 {
			iters = 1
		}
		regions := ctx.Decomp.Region(ctx.Rank)
		if cfg.GhostWidth > 0 {
			regions = ctx.Decomp.GhostRegions(ctx.Rank, cfg.GhostWidth)
		}
		for version := 0; version < iters; version++ {
			ctx.Space.SetPhase(fmt.Sprintf("couple:%d:%d", ctx.AppID, version))
			for _, region := range regions {
				var got []float64
				var err error
				if cfg.Mode == Concurrent {
					info, ok := ctx.Producers[cfg.Producer]
					if !ok {
						return fmt.Errorf("apps: producer %d not in bundle", cfg.Producer)
					}
					got, err = ctx.Space.GetConcurrent(info, cfg.Var, version, region)
				} else {
					got, err = ctx.Space.GetSequential(cfg.Var, version, region)
				}
				if err != nil {
					return err
				}
				if cfg.Verify {
					if err := VerifyRegion(region, version, got); err != nil {
						return fmt.Errorf("apps: app %d rank %d: %w", ctx.AppID, ctx.Rank, err)
					}
				}
			}
			ctx.Space.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, version))
			ctx.Comm.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, version))
			if err := HaloExchange(ctx, cfg.Halo); err != nil {
				return err
			}
		}
		return nil
	}
}
