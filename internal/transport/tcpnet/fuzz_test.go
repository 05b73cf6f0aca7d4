package tcpnet

import (
	"bytes"
	"testing"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/transport"
)

// appendFrame encodes fr's whole body (without the length prefix) onto dst.
func appendFrame(dst []byte, fr *frame) []byte {
	return append(appendFrameHeader(dst, fr, len(fr.Payload)), fr.Payload...)
}

// marshalFrame is marshalFrameInto onto a fresh contiguous buffer: a
// whole frame, length prefix included, for seed corpora and checks.
func marshalFrame(fr *frame) ([]byte, error) {
	head, tail, err := marshalFrameInto(nil, fr)
	return append(head, tail...), err
}

// FuzzWireFrame throws arbitrary bodies at the strict frame decoder. Two
// properties must hold: the decoder never panics, and any body it accepts
// re-encodes to exactly the same bytes (the codec is canonical — a decoded
// frame carries no information outside its wire form). The seed corpus is
// the recorded encoding of every representative frame shape, and of the two
// message frames of wire v10 under the ops their codes name today.
func FuzzWireFrame(f *testing.F) {
	for _, fr := range append(sampleFrames(), v10MessageFrames()...) {
		buf, err := marshalFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
	}
	// Adversarial seeds: truncations, trailing bytes, hostile lengths.
	valid, _ := marshalFrame(sampleFrames()[1])
	f.Add(valid[4 : len(valid)-1])
	f.Add(append(append([]byte(nil), valid[4:]...), 0xFF))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, fixedHeaderLen+10))
	// A buffer op truncated mid-tag (the classic short write).
	unexpose, _ := marshalFrame(&frame{Op: opUnexpose, Dst: 1, Name: "u", Version: 3})
	f.Add(unexpose[4 : fixedHeaderLen/2])
	// A read whose patience is no non-negative duration: it decodes, and
	// serveReadMulti refuses it.
	patience, _ := marshalFrame(&frame{Op: opReadMulti, Src: 1, Tag: 1 << 63, Payload: sampleSpecPayload()})
	f.Add(patience[4:])
	// The op codes earlier wire versions used past today's opMax (the five
	// ops v7 removed, the two v10 removed, the two v11 removed, the one v14
	// removed): otherwise well-formed bodies the decoder must reject as
	// invalid ops.
	for op := opMax; op < v6OpMax; op++ {
		old := append([]byte(nil), unexpose[4:]...)
		old[0] = op
		f.Add(old)
	}

	// A payload kind past the last defined one, and the code payloadMsg
	// took in wire v9 on a frame that is otherwise a v8 gob call.
	kind := append([]byte(nil), valid[4:]...)
	kind[3] = payloadKindMax
	f.Add(kind)
	call, _ := marshalFrame(&frame{Op: opCall, Kind: payloadGob, Src: 1, Name: "cods.dht", Payload: []byte{1, 2, 3}})
	f.Add(call[4:])

	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrame(body)
		if err != nil {
			return
		}
		out := appendFrame(nil, fr)
		if !bytes.Equal(out, body) {
			t.Fatalf("accepted body is not canonical:\nin  %x\nout %x", body, out)
		}
	})
}

// FuzzReadSpecs holds the scatter-gather spec codec to the same bar: the
// strict decoder never panics, and any spec list it accepts re-encodes to
// exactly the input bytes and meters no negative size.
func FuzzReadSpecs(f *testing.F) {
	f.Add(sampleSpecPayload())
	empty, _ := appendReadSpecs(nil, nil)
	f.Add(empty)
	f.Add(sampleSpecPayload()[:7])                     // truncated mid-spec
	f.Add(append(append([]byte(nil), empty...), 0x01)) // trailing byte
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})              // hostile count
	f.Add(bytes.Repeat([]byte{0x00}, 64))              // zero soup
	negative, _ := appendReadSpecs(nil, []transport.ReadSpec{{Owner: 1, Key: transport.BufKey{Name: "u"},
		Sub: geometry.NewBBox(geometry.Point{0}, geometry.Point{1}), Bytes: -8}})
	f.Add(negative) // a negative metered size, which the decoder refuses
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := decodeReadSpecs(body)
		if err != nil {
			return
		}
		for i, spec := range specs {
			if spec.Bytes < 0 {
				t.Fatalf("accepted spec %d meters %d bytes", i, spec.Bytes)
			}
		}
		out, err := appendReadSpecs(nil, specs)
		if err != nil {
			t.Fatalf("accepted specs fail to re-encode: %v", err)
		}
		if !bytes.Equal(out, body) {
			t.Fatalf("accepted spec list is not canonical:\nin  %x\nout %x", body, out)
		}
	})
}
