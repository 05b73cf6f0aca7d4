package dht

// The four DHT control messages share one wire form (DESIGN §5f, *Control
// messages*): the tag byte, a u32 entry count, then per entry the variable
// name (u32 length + bytes), i64 version, i32 owner core and the region as a
// box (geometry.AppendBox). insert, remove and query carry exactly one entry
// (a query's owner field carries its bound, never negative), the query
// response any number.
// The decoder is strict: another count than the tag allows, a count the
// remaining bytes cannot hold (checked before the slice is allocated), a
// field that ends early or a byte left over fails the message.

import (
	"encoding/binary"
	"errors"
	"slices"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/mutate"
	"github.com/insitu/cods/internal/transport"
)

const (
	tagInsert uint8 = iota + 1
	tagRemove
	tagQuery
	tagQueryResp
)

var errMalformed = errors.New("dht: message is cut short, overlong, or not what its tag encodes")

// An entry's fixed fields (name length, version, owner, rank) and, with the
// one corner pair every region has, the least any entry occupies.
const (
	entryFixedLen = 4 + 8 + 4 + 1
	minEntryLen   = entryFixedLen + 16
)

func init() {
	type msg = transport.WireMessage
	e := Entry{Var: "u", Version: 3, Owner: 5, Region: geometry.NewBBox(geometry.Point{0, 8}, geometry.Point{8, 16})}
	f := Entry{Var: "u", Version: 3, Owner: 6, Region: geometry.NewBBox(geometry.Point{8, 8}, geometry.Point{16, 16})}
	// register installs a decoder that reads want entries (-1: any number)
	// and hands them to build, which answers nil for entries its message
	// could not have been encoded from.
	register := func(tag uint8, sample msg, want int, build func([]Entry) msg) {
		transport.RegisterMessage(tag, sample, func(b []byte) (msg, error) {
			es, err := readEntries(b, want)
			if err != nil {
				return nil, err
			}
			if m := build(es); m != nil {
				return m, nil
			}
			return nil, errMalformed
		})
	}
	register(tagInsert, insertReq{e}, 1, func(es []Entry) msg { return insertReq{es[0]} })
	register(tagRemove, removeReq{e}, 1, func(es []Entry) msg { return removeReq{es[0]} })
	register(tagQuery, queryReq{Var: "u", Version: 3, Region: e.Region, Bound: 1024}, 1, func(es []Entry) msg {
		if es[0].Owner < 0 {
			return nil
		}
		return queryReq{Var: es[0].Var, Version: es[0].Version, Region: es[0].Region, Bound: int(es[0].Owner)}
	})
	register(tagQueryResp, queryResp{[]Entry{e, f}}, -1, func(es []Entry) msg {
		if mutate.Enabled(mutate.TCPMsgEntryDrop) && len(es) >= 2 {
			es = es[:len(es)-1] // seeded defect: the answer loses its last entry
		}
		return queryResp{es}
	})
}

func (r insertReq) AppendWire(dst []byte) []byte { return appendEntries(dst, tagInsert, r.Entry) }
func (r removeReq) AppendWire(dst []byte) []byte { return appendEntries(dst, tagRemove, r.Entry) }
func (r queryReq) AppendWire(dst []byte) []byte {
	return appendEntries(dst, tagQuery, Entry{Var: r.Var, Version: r.Version, Region: r.Region, Owner: cluster.CoreID(r.Bound)})
}
func (r queryResp) AppendWire(dst []byte) []byte {
	return appendEntries(dst, tagQueryResp, r.Entries...)
}

// appendEntries appends one message, growing dst once to its exact length.
func appendEntries(dst []byte, tag uint8, es ...Entry) []byte {
	n := 1 + 4
	for _, e := range es {
		n += entryFixedLen + len(e.Var) + 16*e.Region.Dim()
	}
	dst = append(slices.Grow(dst, n), tag)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(es)))
	for _, e := range es {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Var)))
		dst = append(dst, e.Var...)
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Version))
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.Owner))
		dst = geometry.AppendBox(dst, e.Region)
	}
	return dst
}

// readEntries decodes the fields of one message; want is the entry count
// its tag requires, -1 for any. No entries decode to a nil slice, as a core
// answers them.
func readEntries(src []byte, want int) ([]Entry, error) {
	if len(src) < 4 {
		return nil, errMalformed
	}
	count := int(binary.BigEndian.Uint32(src))
	if src = src[4:]; count > len(src)/minEntryLen || want >= 0 && count != want {
		return nil, errMalformed
	}
	var es []Entry
	if count > 0 {
		es = make([]Entry, count)
	}
	for i := range es {
		if len(src) < 4 {
			return nil, errMalformed
		}
		n := int(binary.BigEndian.Uint32(src))
		if src = src[4:]; n > len(src)-12 {
			return nil, errMalformed
		}
		e := &es[i]
		if i > 0 && string(src[:n]) == es[i-1].Var {
			e.Var = es[i-1].Var // an answer names one variable: one string for all
		} else {
			e.Var = string(src[:n])
		}
		src = src[n:]
		e.Version = int(int64(binary.BigEndian.Uint64(src)))
		e.Owner = cluster.CoreID(int32(binary.BigEndian.Uint32(src[8:])))
		var err error
		if e.Region, src, err = geometry.ReadBox(src[12:]); err != nil {
			return nil, err
		}
	}
	if len(src) != 0 {
		return nil, errMalformed
	}
	return es, nil
}
