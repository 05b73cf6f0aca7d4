//go:build conformance_mutations

package tcpnet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/mutate"
)

// TestMutationDetectionVectoredFrame holds the two seeded frame defects to
// the vectored write path: a payload too large to be inlined leaves
// marshalFrameInto as an uncopied tail, and both defects must still land
// on what reaches the wire — the truncation on the tail with the length
// prefix computed over the truncated body (so the strict decoder rejects
// it without blocking), the meter-class swap in the header.
func TestMutationDetectionVectoredFrame(t *testing.T) {
	fr := &frame{Op: opExpose, Kind: payloadBlock, Dst: 1, Name: "u", MeterClass: uint8(cluster.InterApp),
		Payload: bytes.Repeat([]byte{0xAB}, maxInlineBody+1)}
	marshal := func() (head, tail []byte) {
		t.Helper()
		head, tail, err := marshalFrameInto(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		if len(tail) == 0 {
			t.Fatalf("a %d-byte payload was inlined; the vectored path is not under test", len(fr.Payload))
		}
		if n := int(binary.BigEndian.Uint32(head)); n != len(head)-4+len(tail) {
			t.Fatalf("length prefix %d, but %d body bytes follow", n, len(head)-4+len(tail))
		}
		return head, tail
	}
	head, tail := marshal()
	clean, err := decodeFrame(append(head[4:], tail...))
	if err != nil || clean.MeterClass != fr.MeterClass || !bytes.Equal(clean.Payload, fr.Payload) {
		t.Fatalf("vectored frame does not round-trip without a mutation: %+v, %v", clean, err)
	}

	t.Setenv("CODS_MUTATION", mutate.TCPTruncFrame)
	head, tail = marshal()
	if len(tail) != len(fr.Payload)-1 {
		t.Fatalf("%s left a %d-byte tail of a %d-byte payload, want one byte short", mutate.TCPTruncFrame, len(tail), len(fr.Payload))
	}
	if _, err := decodeFrame(append(head[4:], tail...)); err == nil {
		t.Fatalf("strict decoder accepted a frame truncated by %s", mutate.TCPTruncFrame)
	}

	t.Setenv("CODS_MUTATION", mutate.TCPMeterClass)
	head, tail = marshal()
	swapped, err := decodeFrame(append(head[4:], tail...))
	if err != nil {
		t.Fatal(err)
	}
	if swapped.MeterClass != uint8(cluster.Control) {
		t.Fatalf("%s left meter class %d on the vectored frame, want the swap to Control", mutate.TCPMeterClass, swapped.MeterClass)
	}
}

// TestMutationDetectionClipRowSkew holds the seeded owner-clip defect to
// TestExposedBlockServesSubBoxes: blocks that crossed the wire must serve
// their sub-boxes as exposed, which every multi-row clip breaks.
func TestMutationDetectionClipRowSkew(t *testing.T) {
	if err := exposedSubBoxMismatch(t); err != nil {
		t.Fatalf("exposed blocks serve wrong sub-boxes even without the mutation: %v", err)
	}
	t.Setenv("CODS_MUTATION", mutate.TCPClipRowSkew)
	err := exposedSubBoxMismatch(t)
	if err == nil {
		t.Fatalf("exposed sub-box reads did not detect seeded defect %q", mutate.TCPClipRowSkew)
	}
	t.Logf("detected %q: %v", mutate.TCPClipRowSkew, err)
}
