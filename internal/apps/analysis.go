package apps

// The parallel in-situ analysis kernels the end-to-end workflows run against
// the simulation data they pull from the space: descriptive moments,
// extrema, histograms and isosurface cell counting, each computed locally
// per task over its retrieved regions and reduced across the analysis
// application's communicator. These are the online data-processing
// operations (redistribution, reduction) the paper motivates with the ADIOS
// I/O pipelines (Sections I and II-A).

import (
	"fmt"
	"math"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mpi"
)

// Moments accumulates count, sum, sum of squares, min and max — enough for
// mean, variance and extrema — and is mergeable across tasks.
type Moments struct {
	Count float64
	Sum   float64
	SumSq float64
	Min   float64
	Max   float64
}

// NewMoments returns an empty accumulator.
func NewMoments() Moments {
	return Moments{Min: math.Inf(1), Max: math.Inf(-1)}
}

// add folds one sample in.
func (m *Moments) add(v float64) {
	m.Count++
	m.Sum += v
	m.SumSq += v * v
	if v < m.Min {
		m.Min = v
	}
	if v > m.Max {
		m.Max = v
	}
}

// AddAll folds a slice of samples in.
func (m *Moments) AddAll(vs []float64) {
	for _, v := range vs {
		m.add(v)
	}
}

// Mean returns the arithmetic mean (NaN when empty).
func (m Moments) Mean() float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return m.Sum / m.Count
}

// Variance returns the population variance (NaN when empty).
func (m Moments) Variance() float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	mean := m.Mean()
	return m.SumSq/m.Count - mean*mean
}

// vector packs the accumulator for an Allreduce; min is negated so a
// single Sum/Max-style reduction cannot be used — instead the merge is
// done with two reductions (sums and extrema).
func (m Moments) sums() []float64    { return []float64{m.Count, m.Sum, m.SumSq} }
func (m Moments) extrema() []float64 { return []float64{m.Max, -m.Min} }

// ReduceMoments combines every rank's local moments into the global
// moments on all ranks.
func ReduceMoments(comm *mpi.Comm, local Moments) (Moments, error) {
	sums, err := comm.Allreduce(mpi.Sum, local.sums())
	if err != nil {
		return Moments{}, err
	}
	ext, err := comm.Allreduce(mpi.Max, local.extrema())
	if err != nil {
		return Moments{}, err
	}
	return Moments{
		Count: sums[0],
		Sum:   sums[1],
		SumSq: sums[2],
		Max:   ext[0],
		Min:   -ext[1],
	}, nil
}

// Histogram is a fixed-range equal-width histogram, mergeable across
// tasks. Samples outside [Lo, Hi) land in the clamped edge bins.
type Histogram struct {
	Lo, Hi float64
	Bins   []float64
}

// NewHistogram builds a histogram with the given bounds and bin count. The
// width hi-lo must be finite, so that a sample's bin is too.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(lo < hi) || math.IsInf(hi-lo, 1) {
		return nil, fmt.Errorf("analysis: histogram bounds [%v, %v)", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("analysis: %d bins", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]float64, bins)}, nil
}

// add counts one sample. The range is checked in float64 before the bin
// index is converted to int: an out-of-range float-to-int conversion is
// implementation-defined (MinInt64 on amd64, which would put 1e300 and +Inf
// in bin 0).
func (h *Histogram) add(v float64) {
	last := len(h.Bins) - 1
	idx := last
	switch {
	case !(v >= h.Lo): // below the range, -Inf and NaN
		idx = 0
	case v < h.Hi:
		idx = min(int(float64(len(h.Bins))*(v-h.Lo)/(h.Hi-h.Lo)), last)
	}
	h.Bins[idx]++
}

// AddAll counts a slice of samples.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.add(v)
	}
}

// total returns the number of counted samples.
func (h *Histogram) total() float64 {
	var t float64
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// ReduceHistogram sums every rank's bins into the global histogram on all
// ranks. All ranks must use identical bounds and bin counts.
func ReduceHistogram(comm *mpi.Comm, local *Histogram) (*Histogram, error) {
	bins, err := comm.Allreduce(mpi.Sum, local.Bins)
	if err != nil {
		return nil, err
	}
	return &Histogram{Lo: local.Lo, Hi: local.Hi, Bins: bins}, nil
}

// IsoCells counts the cells of a region whose value crosses the
// isovalue against at least one +dimension neighbour within the region —
// a proxy for isosurface extent, computable locally per retrieved block.
// data is row-major over region.
func IsoCells(region geometry.BBox, data []float64, iso float64) (int64, error) {
	if int64(len(data)) != region.Volume() {
		return 0, fmt.Errorf("analysis: %d cells for region %v", len(data), region)
	}
	dim := region.Dim()
	var count int64
	region.Each(func(p geometry.Point) {
		self := data[region.Offset(p)]
		for d := 0; d < dim; d++ {
			if p[d]+1 >= region.Max[d] {
				continue
			}
			q := p.Clone()
			q[d]++
			other := data[region.Offset(q)]
			if (self < iso) != (other < iso) {
				count++
				return
			}
		}
	})
	return count, nil
}

// ReduceCount sums per-rank counts on all ranks.
func ReduceCount(comm *mpi.Comm, local int64) (int64, error) {
	out, err := comm.Allreduce(mpi.Sum, []float64{float64(local)})
	if err != nil {
		return 0, err
	}
	return int64(out[0]), nil
}
