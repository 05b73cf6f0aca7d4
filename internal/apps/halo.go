package apps

// Data-correct ghost-cell exchange for the decomposed data-parallel
// applications: each rank owns a block of the domain plus a ghost margin,
// and every iteration the margins are filled with the neighbours' boundary
// data. It is the intra-application communication of the paper's evaluation
// (2-D/3-D stencil-like near-neighbour exchange, Section V-B) carried out
// with real data, not just metered slab sizes.
//
// The exchange schedule is derived purely from the decomposition: for each
// rank, the ghost region around its owned block is intersected with the
// other ranks' owned blocks (periodic boundaries supported by wrapping the
// ghost pieces around the domain), producing matching send/receive lists.

import (
	"fmt"

	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mpi"
)

// haloSchedule is one rank's halo schedule: matching sends and receives.
type haloSchedule struct {
	// Sends lists regions of this rank's OWNED data wanted by peers.
	Sends []haloPiece
	// Recvs lists regions of this rank's GHOST margin owned by peers.
	// Region coordinates may lie outside the domain for periodic wraps;
	// Source gives the in-domain region the data comes from.
	Recvs []haloPiece
}

// haloPiece is one transfer of a halo exchange.
type haloPiece struct {
	Peer int
	// Region is the box in the local array's coordinate frame.
	Region geometry.BBox
	// Source is the in-domain box the data corresponds to (differs from
	// Region only for periodic wrap-around pieces).
	Source geometry.BBox
}

// buildHaloSchedule computes every rank's halo exchange for a blocked
// decomposition with ghost width w and periodic boundaries. Only Blocked
// distributions are supported: stencil applications decompose blocked (the
// evaluation's applications do), and (block-)cyclic layouts have no
// meaningful contiguous halo.
func buildHaloSchedule(dc *decomp.Decomposition, w int) ([]haloSchedule, error) {
	if dc.Kind() != decomp.Blocked {
		return nil, fmt.Errorf("halo: only blocked decompositions have halos, got %s", dc.Kind())
	}
	if w < 0 {
		return nil, fmt.Errorf("halo: negative ghost width %d", w)
	}
	n := dc.NumTasks()
	domain := dc.Domain()
	dim := domain.Dim()
	out := make([]haloSchedule, n)
	if w == 0 {
		return out, nil
	}
	// Owned block per rank (blocked: exactly one).
	owned := make([]geometry.BBox, n)
	for r := 0; r < n; r++ {
		owned[r] = dc.Region(r)[0]
		// A ghost wider than a block would wrap around more than one
		// neighbour image; real stencils never need that.
		for d := 0; d < dim; d++ {
			if w > owned[r].Size(d) {
				return nil, fmt.Errorf("halo: ghost width %d exceeds rank %d block extent %d",
					w, r, owned[r].Size(d))
			}
		}
	}
	// For each rank, intersect its inflated block (not clipped — ghosts
	// wrap) with every periodic image of every other rank's block.
	sizes := domain.Sizes()
	var shifts []geometry.Point
	var build func(d int, cur geometry.Point)
	build = func(d int, cur geometry.Point) {
		if d == dim {
			shifts = append(shifts, cur.Clone())
			return
		}
		for _, s := range []int{-1, 0, 1} {
			next := append(cur.Clone(), s*sizes[d])
			build(d+1, next)
		}
	}
	build(0, geometry.Point{})
	for r := 0; r < n; r++ {
		ghost := geometry.BBox{Min: owned[r].Min.Clone(), Max: owned[r].Max.Clone()}
		for d := 0; d < dim; d++ {
			ghost.Min[d] -= w
			ghost.Max[d] += w
		}
		for peer := 0; peer < n; peer++ {
			for _, shift := range shifts {
				img := owned[peer].Translate(shift)
				inter, ok := ghost.Intersect(img)
				if !ok {
					continue
				}
				// Cells of the rank's own interior are not ghosts.
				if rest := inter.Subtract(owned[r]); len(rest) == 0 {
					continue
				} else if len(rest) != 1 || !rest[0].Equal(inter) {
					// The intersection straddles the owned block (possible
					// when a periodic image of the peer overlaps both the
					// margin and the interior); keep only the margin parts.
					for _, piece := range rest {
						src := piece.Translate(negate(shift))
						if peer == r && src.Equal(piece) {
							continue
						}
						out[r].Recvs = append(out[r].Recvs, haloPiece{Peer: peer, Region: piece, Source: src})
						out[peer].Sends = append(out[peer].Sends, haloPiece{Peer: r, Region: src, Source: src})
					}
					continue
				}
				src := inter.Translate(negate(shift))
				if peer == r && src.Equal(inter) {
					continue // own interior, not a wrap image
				}
				out[r].Recvs = append(out[r].Recvs, haloPiece{Peer: peer, Region: inter, Source: src})
				out[peer].Sends = append(out[peer].Sends, haloPiece{Peer: r, Region: src, Source: src})
			}
		}
	}
	return out, nil
}

func negate(p geometry.Point) geometry.Point {
	out := make(geometry.Point, len(p))
	for i, v := range p {
		out[i] = -v
	}
	return out
}

// haloTag is the reserved tag of halo traffic.
const haloTag = 1<<24 - 3

// runHalo executes one rank's halo exchange over its application
// communicator: owned data is read through read (region in domain
// coordinates), received ghost pieces are delivered through write (region
// in the local ghost frame, possibly outside the domain). Pieces between a
// pair are sent in schedule order; frames carry no headers, so both sides'
// schedules must come from the same buildHaloSchedule call.
func runHalo(comm *mpi.Comm, ex haloSchedule,
	read func(geometry.BBox) ([]float64, error),
	write func(geometry.BBox, []float64) error) error {
	for _, p := range ex.Sends {
		data, err := read(p.Region)
		if err != nil {
			return err
		}
		if int64(len(data)) != p.Region.Volume() {
			return fmt.Errorf("halo: read returned %d cells for %v", len(data), p.Region)
		}
		if err := comm.Send(p.Peer, haloTag, mpi.Float64sToBytes(data)); err != nil {
			return err
		}
	}
	for _, p := range ex.Recvs {
		payload, _, err := comm.Recv(p.Peer, haloTag)
		if err != nil {
			return err
		}
		data := mpi.BytesToFloat64s(payload)
		if int64(len(data)) != p.Region.Volume() {
			return fmt.Errorf("halo: received %d cells for ghost %v", len(data), p.Region)
		}
		if err := write(p.Region, data); err != nil {
			return err
		}
	}
	return nil
}
