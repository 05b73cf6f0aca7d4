// Package mpi is a miniature message-passing substrate modeled on the MPI
// subset the paper's framework needs: communicators with ranks,
// point-to-point send/receive, a few collectives, and CommSplit — the
// MPI_Comm_split mechanism the execution clients use to form per-application
// process groups at runtime ("coloring", paper Section IV-C).
//
// Each rank of a communicator is expected to run on its own goroutine,
// mirroring one MPI process per core. All traffic flows through the
// HybridDART transport and is therefore metered as shared-memory or network
// bytes depending on task placement.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/transport"
)

// AnySource matches any sending rank in Recv.
const AnySource = -1

// nextCtx allocates distinct communicator context ids so traffic on
// different communicators never cross-matches. In a real MPI the processes
// agree on context ids during communicator construction; a process-wide
// counter models that agreement.
var nextCtx atomic.Uint64

// message kinds multiplexed onto the transport tag space.
const (
	kindUser uint64 = iota
	kindBarrier
	kindBcast
	kindGather
	kindReduce
	kindSplit
)

// Comm is one rank's handle on a communicator.
type Comm struct {
	fabric *transport.Fabric
	cores  []cluster.CoreID // rank -> core
	rank   int
	ctx    uint64
	meter  transport.Meter
}

// NewComms builds a communicator spanning the given cores (rank i on
// cores[i]) and returns the per-rank handles. app and phase set the
// metering context for all traffic on the communicator; intra-communicator
// traffic is intra-application by definition.
func NewComms(f *transport.Fabric, cores []cluster.CoreID, app int, phase string) ([]*Comm, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("mpi: empty communicator")
	}
	seen := make(map[cluster.CoreID]bool, len(cores))
	for _, c := range cores {
		if seen[c] {
			return nil, fmt.Errorf("mpi: core %d appears twice in communicator", c)
		}
		seen[c] = true
	}
	ctx := nextCtx.Add(1)
	out := make([]*Comm, len(cores))
	for r := range cores {
		out[r] = &Comm{
			fabric: f,
			cores:  append([]cluster.CoreID(nil), cores...),
			rank:   r,
			ctx:    ctx,
			meter:  transport.Meter{Phase: phase, Class: cluster.IntraApp, DstApp: app},
		}
	}
	return out, nil
}

// Rank returns this handle's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.cores) }

// Core returns the core that runs the given rank.
func (c *Comm) Core(rank int) cluster.CoreID { return c.cores[rank] }

// SetPhase changes the metering phase tag for subsequent traffic.
func (c *Comm) SetPhase(phase string) { c.meter.Phase = phase }

// endpoint returns this rank's transport endpoint.
func (c *Comm) endpoint() *transport.Endpoint {
	return c.fabric.Endpoint(c.cores[c.rank])
}

// tag packs (context, kind, user tag) into the transport tag space.
func (c *Comm) tag(kind uint64, user int) uint64 {
	if user < 0 || user >= 1<<24 {
		panic(fmt.Sprintf("mpi: user tag %d outside [0, 2^24)", user))
	}
	return c.ctx<<28 | kind<<24 | uint64(user)
}

// Send delivers data to rank dst with a user tag. The data is copied, so
// the caller may reuse the buffer.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(c.cores) {
		return fmt.Errorf("mpi: destination rank %d out of range [0,%d)", dst, len(c.cores))
	}
	buf := append([]byte(nil), data...)
	return c.endpoint().Send(c.cores[dst], c.tag(kindUser, tag), buf, c.meter)
}

// Recv blocks for a message from rank src (or AnySource) with the given
// user tag and returns its payload and the actual source rank.
func (c *Comm) Recv(src, tag int) ([]byte, int, error) {
	var from cluster.CoreID = transport.AnySource
	if src != AnySource {
		if src < 0 || src >= len(c.cores) {
			return nil, 0, fmt.Errorf("mpi: source rank %d out of range", src)
		}
		from = c.cores[src]
	}
	msg, err := c.endpoint().Recv(from, c.tag(kindUser, tag))
	if err != nil {
		return nil, 0, err
	}
	return msg.Payload, c.rankOfCore(msg.Src), nil
}

// SendRecv exchanges messages with two peers in a deadlock-free way (the
// send is asynchronous).
func (c *Comm) SendRecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, error) {
	if err := c.Send(dst, sendTag, data); err != nil {
		return nil, err
	}
	payload, _, err := c.Recv(src, recvTag)
	return payload, err
}

func (c *Comm) rankOfCore(core cluster.CoreID) int {
	for r, cc := range c.cores {
		if cc == core {
			return r
		}
	}
	return -1
}

// internal send/recv for collectives: metered as framework control
// traffic, not application payload.
func (c *Comm) isend(dst int, kind uint64, seq int, data []byte) error {
	m := c.meter
	m.Class = cluster.Control
	return c.endpoint().Send(c.cores[dst], c.tag(kind, seq), data, m)
}

func (c *Comm) irecv(src int, kind uint64, seq int) ([]byte, error) {
	from := c.cores[src]
	msg, err := c.endpoint().Recv(from, c.tag(kind, seq))
	if err != nil {
		return nil, err
	}
	return msg.Payload, nil
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm, log2(size) rounds).
func (c *Comm) Barrier() error {
	n := len(c.cores)
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		if err := c.isend(to, kindBarrier, round, nil); err != nil {
			return err
		}
		if _, err := c.irecv(from, kindBarrier, round); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every rank over a binomial tree and
// returns the data on all ranks.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	n := len(c.cores)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	// Work in a rotated rank space where root is 0 (binomial tree, the
	// MPICH formulation).
	vrank := (c.rank - root + n) % n
	toReal := func(v int) int { return (v + root) % n }
	var buf []byte
	mask := 1
	if vrank == 0 {
		buf = append([]byte(nil), data...)
		for mask < n {
			mask <<= 1
		}
	} else {
		for mask < n {
			if vrank&mask != 0 {
				payload, err := c.irecv(toReal(vrank-mask), kindBcast, 0)
				if err != nil {
					return nil, err
				}
				buf = payload
				break
			}
			mask <<= 1
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank&mask == 0 && vrank+mask < n && vrank&(mask-1) == 0 {
			if err := c.isend(toReal(vrank+mask), kindBcast, 0, buf); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// Gather collects every rank's data at root. On root the result has one
// entry per rank (index = rank); on other ranks it is nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	n := len(c.cores)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: gather root %d out of range", root)
	}
	if c.rank != root {
		return nil, c.isend(root, kindGather, c.rank, data)
	}
	out := make([][]byte, n)
	out[root] = append([]byte(nil), data...)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		payload, err := c.irecv(r, kindGather, r)
		if err != nil {
			return nil, err
		}
		out[r] = payload
	}
	return out, nil
}

// Op is a reduction operator over float64.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

func (op Op) apply(a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	}
	panic("mpi: unknown op")
}

// Reduce combines every rank's vector element-wise at root. Non-root ranks
// get nil.
func (c *Comm) Reduce(root int, op Op, data []float64) ([]float64, error) {
	parts, err := c.Gather(root, Float64sToBytes(data))
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	acc := BytesToFloat64s(parts[0])
	for _, p := range parts[1:] {
		v := BytesToFloat64s(p)
		if len(v) != len(acc) {
			return nil, fmt.Errorf("mpi: reduce length mismatch %d vs %d", len(v), len(acc))
		}
		for i := range acc {
			acc[i] = op.apply(acc[i], v[i])
		}
	}
	return acc, nil
}

// Allreduce is Reduce followed by Bcast; every rank gets the result.
func (c *Comm) Allreduce(op Op, data []float64) ([]float64, error) {
	red, err := c.Reduce(0, op, data)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if c.rank == 0 {
		buf = Float64sToBytes(red)
	}
	out, err := c.Bcast(0, buf)
	if err != nil {
		return nil, err
	}
	return BytesToFloat64s(out), nil
}

// Undefined is the color that opts a rank out of CommSplit (the caller
// receives a nil communicator).
const Undefined = -1

// CommSplit partitions the communicator: ranks passing the same color form
// a new communicator, ordered by (key, old rank). This is the mechanism the
// execution clients use to form one process group per application in a
// bundle. All ranks must call it collectively.
func (c *Comm) CommSplit(color, key int) (*Comm, error) {
	// Gather (color, key) at rank 0.
	req := make([]byte, 16)
	binary.LittleEndian.PutUint64(req[0:8], uint64(int64(color)))
	binary.LittleEndian.PutUint64(req[8:16], uint64(int64(key)))
	parts, err := c.Gather(0, req)
	if err != nil {
		return nil, err
	}
	// Rank 0 computes the grouping and broadcasts the full table plus one
	// fresh context id per color.
	var table []byte
	if c.rank == 0 {
		type entry struct{ color, key, rank int }
		entries := make([]entry, len(parts))
		for r, p := range parts {
			entries[r] = entry{
				color: int(int64(binary.LittleEndian.Uint64(p[0:8]))),
				key:   int(int64(binary.LittleEndian.Uint64(p[8:16]))),
				rank:  r,
			}
		}
		colors := map[int][]entry{}
		for _, e := range entries {
			if e.color != Undefined {
				colors[e.color] = append(colors[e.color], e)
			}
		}
		sortedColors := make([]int, 0, len(colors))
		for col := range colors {
			sortedColors = append(sortedColors, col)
		}
		sort.Ints(sortedColors)
		// Table layout per old rank: color, ctx, newRank, groupSize,
		// then the group's member old-ranks appended per color region.
		// Simpler: serialize per-color groups; each rank extracts its own.
		var buf []byte
		put := func(v int) {
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(int64(v)))
			buf = append(buf, tmp[:]...)
		}
		put(len(sortedColors))
		for _, col := range sortedColors {
			group := colors[col]
			sort.Slice(group, func(i, j int) bool {
				if group[i].key != group[j].key {
					return group[i].key < group[j].key
				}
				return group[i].rank < group[j].rank
			})
			ctx := int(nextCtx.Add(1))
			put(col)
			put(ctx)
			put(len(group))
			for _, e := range group {
				put(e.rank)
			}
		}
		table = buf
	}
	table, err = c.Bcast(0, table)
	if err != nil {
		return nil, err
	}
	if color == Undefined {
		return nil, nil
	}
	// Decode the table and find our group.
	pos := 0
	get := func() int {
		v := int(int64(binary.LittleEndian.Uint64(table[pos : pos+8])))
		pos += 8
		return v
	}
	numColors := get()
	for i := 0; i < numColors; i++ {
		col := get()
		ctx := get()
		size := get()
		members := make([]int, size)
		for j := range members {
			members[j] = get()
		}
		if col != color {
			continue
		}
		cores := make([]cluster.CoreID, size)
		newRank := -1
		for j, oldRank := range members {
			cores[j] = c.cores[oldRank]
			if oldRank == c.rank {
				newRank = j
			}
		}
		if newRank == -1 {
			return nil, fmt.Errorf("mpi: split table omits rank %d for color %d", c.rank, color)
		}
		return &Comm{
			fabric: c.fabric,
			cores:  cores,
			rank:   newRank,
			ctx:    uint64(ctx),
			meter:  c.meter,
		}, nil
	}
	return nil, fmt.Errorf("mpi: color %d missing from split table", color)
}

// Float64sToBytes serializes a float64 slice little-endian.
func Float64sToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(f))
	}
	return out
}

// BytesToFloat64s deserializes a little-endian float64 slice.
func BytesToFloat64s(b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("mpi: byte slice length not a multiple of 8")
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
