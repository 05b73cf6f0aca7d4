package transport_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	// The one package whose RPCs cross the wire: importing it fills the
	// message registry exactly as a codsnode's link does.
	_ "github.com/insitu/cods/internal/dht"
	"github.com/insitu/cods/internal/transport"
)

// testMsg is a message of the tests' own: tag 0xF0, then its one byte.
type testMsg struct{ b byte }

const tagTest = 0xF0

func (m testMsg) AppendWire(dst []byte) []byte { return append(dst, tagTest, m.b) }

// strayMsg implements WireMessage under a tag nobody registered.
type strayMsg struct{}

func (strayMsg) AppendWire(dst []byte) []byte { return append(dst, 0xF1) }

func decodeTest(b []byte) (transport.WireMessage, error) {
	if len(b) != 1 {
		return nil, transport.ErrEndpointClosed // any error will do
	}
	return testMsg{b[0]}, nil
}

func init() { transport.RegisterMessage(tagTest, testMsg{}, decodeTest) }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestEveryMessageRoundTrips walks the registry: each of the four DHT
// control messages (and the test message above) encodes to its tag plus
// fields and decodes back to a deep-equal value of the same by-value type Backend.Call
// hands a handler. Around them, the registry's rules: nil is the empty
// payload in both directions, a zero, duplicate or mismatched tag panics at
// registration, a value that is no registered message is an error naming
// its type on the sending side, an unknown tag — the lock service's 8 to 10,
// retired with wire v10, the DHT's dump, dump response and clear (5 to 7),
// retired with v12, like any other — an error on the receiving side.
func TestEveryMessageRoundTrips(t *testing.T) {
	samples := transport.MessageSamples()
	if len(samples) != 5 {
		t.Fatalf("%d messages registered, want the 4 of dht and this file's own", len(samples))
	}
	for _, m := range samples {
		wire, err := transport.EncodePayload(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !bytes.Equal(wire, m.AppendWire(nil)) {
			t.Fatalf("%T: EncodePayload is not the message's own wire form", m)
		}
		got, err := transport.DecodePayload(wire)
		if err != nil {
			t.Fatalf("%T: decoding %x: %v", m, wire, err)
		}
		if !reflect.DeepEqual(got, any(m)) {
			t.Fatalf("%T round-tripped to %#v, want %#v", m, got, m)
		}
	}

	if wire, err := transport.EncodePayload(nil); err != nil || len(wire) != 0 {
		t.Fatalf("nil encodes to %x, %v; want the empty payload", wire, err)
	}
	for _, empty := range [][]byte{nil, {}} {
		if v, err := transport.DecodePayload(empty); err != nil || v != nil {
			t.Fatalf("the empty payload decodes to %v, %v; want nil", v, err)
		}
	}

	mustPanic(t, "registering tag 0", func() { transport.RegisterMessage(0, testMsg{}, decodeTest) })
	mustPanic(t, "registering a sample under another tag than it writes", func() {
		transport.RegisterMessage(tagTest+2, testMsg{}, decodeTest)
	})
	mustPanic(t, "registering a tag twice", func() { transport.RegisterMessage(tagTest, testMsg{}, decodeTest) })
	if v, err := transport.DecodePayload([]byte{tagTest, 7}); err != nil || v != (testMsg{7}) {
		t.Fatalf("test message decodes to %v, %v", v, err)
	}

	for _, v := range []any{struct{ X int }{1}, "text", strayMsg{}} {
		if _, err := transport.EncodePayload(v); err == nil || !strings.Contains(err.Error(), reflect.TypeOf(v).String()) {
			t.Errorf("encoding unregistered %T: err = %v, want an error naming the type", v, err)
		}
	}
	if _, err := transport.DecodePayload([]byte{0xF1, 1, 2}); err == nil || !strings.Contains(err.Error(), "unknown message tag 241") {
		t.Errorf("decoding an unregistered tag: err = %v", err)
	}
	// A v9 lock acquire (write, name "u") and a v11 dump request: well
	// formed then, refused now.
	if _, err := transport.DecodePayload([]byte{8, 1, 0, 0, 0, 1, 'u'}); err == nil || !strings.Contains(err.Error(), "unknown message tag 8") {
		t.Errorf("decoding retired tag 8: err = %v", err)
	}
	if _, err := transport.DecodePayload(v11Retired()[0]); err == nil || !strings.Contains(err.Error(), "unknown message tag 5") {
		t.Errorf("decoding retired tag 5: err = %v", err)
	}
}

// v11Retired are the v11 codings of the three messages wire v12 removed with
// the DHT re-split — a dump request (tag 5, no entries), a dump response
// (tag 6, here one entry: "u" v3, owner 5, <0,8; 8,16>) and a clear (tag 7,
// no entries). Their tags are unknown now.
func v11Retired() [][]byte {
	insert := transport.MessageSamples()[0].AppendWire(nil) // same entry list under tag 1
	return [][]byte{{5, 0, 0, 0, 0}, append([]byte{6}, insert[1:]...), {7, 0, 0, 0, 0}}
}

// TestMessageStrictDecode holds every registered decoder to the frame
// codec's bar: each proper prefix of a valid message fails, a trailing byte
// fails, and an entry list whose count exceeds what the remaining bytes
// could hold fails on the count — four billion entries are never allocated.
func TestMessageStrictDecode(t *testing.T) {
	for _, m := range transport.MessageSamples() {
		wire := m.AppendWire(nil)
		for n := 1; n < len(wire); n++ {
			if v, err := transport.DecodePayload(wire[:n]); err == nil {
				t.Errorf("%T: %d-byte prefix of %x decoded to %#v", m, n, wire, v)
			}
		}
		if v, err := transport.DecodePayload(append(wire[:len(wire):len(wire)], 0)); err == nil {
			t.Errorf("%T: a trailing byte was accepted: %#v", m, v)
		}
	}
	const tagQueryResp = 4
	hostile := append([]byte{tagQueryResp, 0xFF, 0xFF, 0xFF, 0xFF}, make([]byte, 256)...)
	if _, err := transport.DecodePayload(hostile); err == nil {
		t.Errorf("a count of 2^32-1 entries over 256 bytes was accepted")
	}
}

// FuzzMessageCodec throws arbitrary payloads at DecodePayload: no input may
// panic a decoder, and whatever decodes is canonical — it re-encodes to
// exactly the bytes it came from.
func FuzzMessageCodec(f *testing.F) {
	const tagQuery = 3
	for _, m := range transport.MessageSamples() {
		wire := m.AppendWire(nil)
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		f.Add(append(wire[:len(wire):len(wire)], 0xFF))
		if wire[0] == tagQuery {
			// A query's owner field carries its bound: another bound (the
			// last byte of the i32), none (a region query), and a negative
			// one, which no query may carry.
			const bound = 1 + 4 + 4 + 1 + 8
			for _, b := range [][4]byte{{0, 0, 0, 5}, {0, 0, 0, 0}, {0xFF, 0xFF, 0xFF, 0xFF}, {0x80, 0, 0, 0}} {
				q := bytes.Clone(wire)
				copy(q[bound:], b[:])
				f.Add(q)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})                                                // tag 0, which no message may take
	f.Add([]byte{tagQuery})                                         // a tag and nothing else
	f.Add([]byte{4, 0, 0, 0, 0})                                    // an answer of no entries: valid, and canonical
	f.Add([]byte{6, 0, 0, 0, 0})                                    // a v11 dump of an empty table
	f.Add([]byte{7, 0, 0, 0, 1})                                    // a v11 clear that claims an entry
	f.Add([]byte{4, 0xFF, 0xFF, 0xFF, 0xFF})                        // a hostile entry count
	f.Add([]byte{5, 0, 0, 0, 1})                                    // a v11 dump request that claims an entry
	f.Add(append([]byte{1, 0, 0, 0, 1}, make([]byte, 33)...))       // an insert whose box has rank 0
	f.Add(append([]byte{1, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}, 0)) // a name longer than the message
	f.Add(append([]byte{1, 0, 0, 0, 2}, make([]byte, 66)...))       // an insert of two entries
	// Tags 8 to 10 are unknown: the v9 forms of the three lock messages
	// (acquire write "u", release "u", granted) decode to nothing.
	f.Add([]byte{8, 1, 0, 0, 0, 1, 'u'})
	f.Add([]byte{9, 0, 0, 0, 0, 1, 'u'})
	f.Add([]byte{10, 1, 0, 0, 0, 0})
	// Tags 5 to 7 likewise since v12: the three retired DHT messages, whole,
	// cut in half and with a byte too many, as the live ones are seeded above.
	for _, wire := range v11Retired() {
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		f.Add(append(wire[:len(wire):len(wire)], 0xFF))
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		v, err := transport.DecodePayload(wire)
		if err != nil || v == nil {
			return
		}
		out, err := transport.EncodePayload(v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		if !bytes.Equal(out, wire) {
			t.Fatalf("accepted payload is not canonical:\nin  %x\nout %x", wire, out)
		}
	})
}
