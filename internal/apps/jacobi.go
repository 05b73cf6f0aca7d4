package apps

import (
	"fmt"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/runtime"
)

// JacobiConfig parameterizes a distributed Jacobi relaxation (heat
// diffusion with periodic boundaries) — a real numerical kernel running on
// the framework's communicator and halo-exchange substrate, standing in
// for the simulation codes of the paper's workflows.
type JacobiConfig struct {
	// Var is the CoDS variable the final field is published under ("" to
	// skip publication).
	Var string
	// Iterations is the number of relaxation sweeps.
	Iterations int
	// Init gives the initial value of every domain cell.
	Init func(geometry.Point) float64
	// Mode selects the coupling operators used for publication.
	Mode Coupling
}

// NewJacobi builds the solver subroutine. Each task owns one blocked
// region plus a one-cell ghost margin; every sweep exchanges halos with
// the grid neighbours and replaces each cell by the average of its 2*dim
// neighbours. The arithmetic is identical to JacobiSerial, cell for cell,
// so distributed runs are verifiable bit-exactly.
func NewJacobi(cfg JacobiConfig) runtime.AppFunc {
	return func(ctx *runtime.AppContext) error {
		if cfg.Init == nil {
			return fmt.Errorf("apps: jacobi needs an Init function")
		}
		dc := ctx.Decomp
		sched, err := buildHaloSchedule(dc, 1)
		if err != nil {
			return err
		}
		owned := dc.Region(ctx.Rank)[0]
		dim := owned.Dim()
		ghostBox := owned.Clone()
		for d := 0; d < dim; d++ {
			ghostBox.Min[d]--
			ghostBox.Max[d]++
		}
		cur := make([]float64, ghostBox.Volume())
		next := make([]float64, ghostBox.Volume())
		owned.Each(func(p geometry.Point) {
			cur[ghostBox.Offset(p)] = cfg.Init(p)
		})
		read := func(region geometry.BBox) ([]float64, error) {
			data := make([]float64, region.Volume())
			i := 0
			region.Each(func(p geometry.Point) {
				data[i] = cur[ghostBox.Offset(p)]
				i++
			})
			return data, nil
		}
		write := func(region geometry.BBox, data []float64) error {
			i := 0
			region.Each(func(p geometry.Point) {
				cur[ghostBox.Offset(p)] = data[i]
				i++
			})
			return nil
		}
		for iter := 0; iter < cfg.Iterations; iter++ {
			ctx.Comm.SetPhase(fmt.Sprintf("halo:%d:%d", ctx.AppID, iter))
			if err := runHalo(ctx.Comm, sched[ctx.Rank], read, write); err != nil {
				return err
			}
			owned.Each(func(p geometry.Point) {
				var sum float64
				for d := 0; d < dim; d++ {
					q := p.Clone()
					q[d]--
					sum += cur[ghostBox.Offset(q)]
					q[d] += 2
					sum += cur[ghostBox.Offset(q)]
				}
				next[ghostBox.Offset(p)] = sum / float64(2*dim)
			})
			cur, next = next, cur
		}
		if cfg.Var != "" {
			ctx.Space.SetPhase(fmt.Sprintf("put:%d", ctx.AppID))
			out, err := read(owned)
			if err != nil {
				return err
			}
			if cfg.Mode == Concurrent {
				return ctx.Space.PutConcurrent(cfg.Var, cfg.Iterations, owned, out)
			}
			return ctx.Space.PutSequential(cfg.Var, cfg.Iterations, owned, out)
		}
		return nil
	}
}

// JacobiSerial runs the identical relaxation on a single array, as the
// reference for correctness tests. It returns the row-major field over
// the domain after the given number of sweeps.
func JacobiSerial(domain geometry.BBox, iterations int, init func(geometry.Point) float64) []float64 {
	dim := domain.Dim()
	sizes := domain.Sizes()
	cur := make([]float64, domain.Volume())
	next := make([]float64, domain.Volume())
	domain.Each(func(p geometry.Point) {
		cur[domain.Offset(p)] = init(p)
	})
	wrap := func(p geometry.Point) geometry.Point {
		q := p.Clone()
		for d := range q {
			q[d] = ((q[d]-domain.Min[d])%sizes[d]+sizes[d])%sizes[d] + domain.Min[d]
		}
		return q
	}
	for iter := 0; iter < iterations; iter++ {
		domain.Each(func(p geometry.Point) {
			var sum float64
			for d := 0; d < dim; d++ {
				q := p.Clone()
				q[d]--
				sum += cur[domain.Offset(wrap(q))]
				q[d] += 2
				sum += cur[domain.Offset(wrap(q))]
			}
			next[domain.Offset(p)] = sum / float64(2*dim)
		})
		cur, next = next, cur
	}
	return cur
}
