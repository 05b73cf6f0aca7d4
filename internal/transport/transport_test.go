package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
)

func fabric(t testing.TB, nodes, cores int) *Fabric {
	t.Helper()
	m, err := cluster.NewMachine(nodes, cores)
	if err != nil {
		t.Fatal(err)
	}
	return NewFabric(m)
}

var testMeter = Meter{Phase: "test", Class: cluster.InterApp, DstApp: 1}

// readOne issues a single-spec ReadMulti of n metered bytes against the
// buffer key exposed by owner, handing the delivered payload to read (nil
// to ignore it).
func readOne(ep *Endpoint, owner cluster.CoreID, key BufKey, m Meter, n int64, read func(payload any)) error {
	return ep.ReadMulti([]ReadSpec{{Owner: owner, Key: key, Bytes: n}}, m,
		func(_ int, payload any, _ []byte) error {
			if read != nil {
				read(payload)
			}
			return nil
		})
}

func TestSendRecvBasic(t *testing.T) {
	f := fabric(t, 2, 2)
	src, dst := f.Endpoint(0), f.Endpoint(3)
	done := make(chan Message, 1)
	go func() {
		msg, err := dst.Recv(0, 42)
		if err != nil {
			t.Error(err)
		}
		done <- msg
	}()
	if err := src.Send(3, 42, []byte("hello"), testMeter); err != nil {
		t.Fatal(err)
	}
	msg := <-done
	if string(msg.Payload) != "hello" || msg.Src != 0 || msg.Tag != 42 {
		t.Fatalf("got %+v", msg)
	}
}

func TestRecvTagMatching(t *testing.T) {
	f := fabric(t, 1, 2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	if err := a.Send(1, 7, []byte("seven"), testMeter); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 8, []byte("eight"), testMeter); err != nil {
		t.Fatal(err)
	}
	// Receive tag 8 first even though 7 was sent first.
	msg, err := b.Recv(0, 8)
	if err != nil || string(msg.Payload) != "eight" {
		t.Fatalf("Recv(8) = %v, %v", msg, err)
	}
	msg, err = b.Recv(AnySource, 7)
	if err != nil || string(msg.Payload) != "seven" {
		t.Fatalf("Recv(7) = %v, %v", msg, err)
	}
}

func TestRecvOrderingSameTag(t *testing.T) {
	f := fabric(t, 1, 2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	for i := byte(0); i < 10; i++ {
		if err := a.Send(1, 1, []byte{i}, testMeter); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 10; i++ {
		msg, err := b.Recv(0, 1)
		if err != nil || msg.Payload[0] != i {
			t.Fatalf("message %d out of order: %v", i, msg.Payload)
		}
	}
}

func TestSendInvalidDestination(t *testing.T) {
	f := fabric(t, 1, 2)
	if err := f.Endpoint(0).Send(9, 1, nil, testMeter); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestMediumMetering(t *testing.T) {
	f := fabric(t, 2, 2)
	mt := f.Machine().Metrics()
	// Cores 0,1 on node 0; cores 2,3 on node 1.
	if err := f.Endpoint(0).Send(1, 1, make([]byte, 100), testMeter); err != nil {
		t.Fatal(err)
	}
	if err := f.Endpoint(0).Send(2, 1, make([]byte, 200), testMeter); err != nil {
		t.Fatal(err)
	}
	if got := mt.Bytes(cluster.InterApp, cluster.SharedMemory); got != 100 {
		t.Fatalf("shm bytes = %d", got)
	}
	if got := mt.Bytes(cluster.InterApp, cluster.Network); got != 200 {
		t.Fatalf("network bytes = %d", got)
	}
	flows := mt.Flows("test")
	if len(flows) != 2 {
		t.Fatalf("flows = %v", flows)
	}
}

func TestExposeReadRoundTrip(t *testing.T) {
	f := fabric(t, 2, 2)
	owner, reader := f.Endpoint(0), f.Endpoint(2)
	key := BufKey{Name: "temperature", Version: 3}
	data := []float64{1, 2, 3}
	if err := owner.Expose(key, data); err != nil {
		t.Fatal(err)
	}
	if err := owner.Expose(key, data); err == nil {
		t.Fatal("double expose accepted")
	}
	var got []float64
	if err := readOne(reader, 0, key, testMeter, 24, func(p any) {
		got = p.([]float64)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("Read payload = %v", got)
	}
	if b := f.Machine().Metrics().Bytes(cluster.InterApp, cluster.Network); b != 24 {
		t.Fatalf("metered %d bytes", b)
	}
	if err := owner.Unexpose(key); err != nil {
		t.Fatalf("Unexpose of an exposed buffer: %v", err)
	}
	if ok, _ := f.LocalExposed(0, key); ok {
		t.Fatal("Unexpose did not remove buffer")
	}
	if err := owner.Unexpose(key); err != nil {
		t.Fatalf("second Unexpose: %v", err)
	}
}

func TestReadBlocksUntilExpose(t *testing.T) {
	f := fabric(t, 1, 2)
	owner, reader := f.Endpoint(0), f.Endpoint(1)
	key := BufKey{Name: "v", Version: 0}
	got := make(chan struct{})
	go func() {
		if err := readOne(reader, 0, key, testMeter, 1, nil); err != nil {
			t.Error(err)
		}
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("Read returned before Expose")
	case <-time.After(20 * time.Millisecond):
	}
	if err := owner.Expose(key, "payload"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("Read did not return after Expose")
	}
}

// TestLocalReadWaits pins the serving-side wait of a read spec: patience 0
// blocks until the buffer is exposed, a positive patience gives up with
// ErrReadPatience, and a closed endpoint fails with ErrEndpointClosed
// under either.
func TestLocalReadWaits(t *testing.T) {
	key := BufKey{Name: "v", Version: 0}
	for _, tc := range []struct {
		name     string
		patience time.Duration
		unblock  func(owner *Endpoint) // nil: the read must return on its own
		want     error
	}{
		{"patience 0 blocks until Expose", 0, func(o *Endpoint) { o.Expose(key, 99) }, nil},
		{"patience expires", 10 * time.Millisecond, nil, ErrReadPatience},
		{"patience outlasts Expose", time.Minute, func(o *Endpoint) { o.Expose(key, 99) }, nil},
		{"closed endpoint, patience 0", 0, (*Endpoint).Close, ErrEndpointClosed},
		{"closed endpoint, patience > 0", time.Minute, (*Endpoint).Close, ErrEndpointClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fabric(t, 1, 2)
			type result struct {
				payload any
				err     error
			}
			done := make(chan result, 1)
			go func() {
				p, err := f.LocalRead(1, 0, key, testMeter, 8, tc.patience)
				done <- result{p, err}
			}()
			if tc.unblock != nil {
				select {
				case r := <-done:
					t.Fatalf("LocalRead returned (%v, %v) before the buffer was exposed", r.payload, r.err)
				case <-time.After(20 * time.Millisecond):
				}
				tc.unblock(f.Endpoint(0))
			}
			select {
			case r := <-done:
				if !errors.Is(r.err, tc.want) {
					t.Fatalf("err = %v, want %v", r.err, tc.want)
				}
				if tc.want == nil && r.payload != 99 {
					t.Fatalf("payload = %v, want 99", r.payload)
				}
				if ops := f.MediumOps(cluster.SharedMemory); (tc.want == nil) != (ops == 1) {
					t.Fatalf("metered %d ops for err %v", ops, r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("LocalRead never returned")
			}
		})
	}
}

func TestCloseUnblocksRecvAndRead(t *testing.T) {
	f := fabric(t, 1, 2)
	ep := f.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := ep.Recv(AnySource, 1); err == nil {
			t.Error("Recv returned nil error after Close")
		}
	}()
	go func() {
		defer wg.Done()
		if err := readOne(f.Endpoint(0), 1, BufKey{Name: "x"}, testMeter, 1, nil); err == nil {
			t.Error("Read returned nil error after Close")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	ep.Close()
	wg.Wait()
}

func TestRPCCall(t *testing.T) {
	f := fabric(t, 2, 1)
	server, client := f.Endpoint(1), f.Endpoint(0)
	server.RegisterHandler("lookup", func(src cluster.CoreID, req any) (any, error) {
		return req.(int) * 2, nil
	})
	resp, err := client.Call(1, "lookup", 21, testMeter, 16, 8)
	if err != nil || resp.(int) != 42 {
		t.Fatalf("Call = %v, %v", resp, err)
	}
	// Control traffic metered both ways: 16 + 8 bytes over network
	// (different nodes).
	if b := f.Machine().Metrics().Bytes(cluster.InterApp, cluster.Network); b != 24 {
		t.Fatalf("metered %d control bytes", b)
	}
	if _, err := client.Call(1, "missing", nil, testMeter, 0, 0); err == nil {
		t.Fatal("missing service accepted")
	}
	if _, err := client.Call(99, "lookup", nil, testMeter, 0, 0); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

func TestConcurrentSendersOneReceiver(t *testing.T) {
	f := fabric(t, 4, 4)
	recv := f.Endpoint(0)
	const senders = 15
	const per = 50
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep := f.Endpoint(cluster.CoreID(s))
			for i := 0; i < per; i++ {
				if err := ep.Send(0, 5, []byte{byte(s)}, testMeter); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	got := 0
	done := make(chan struct{})
	go func() {
		for i := 0; i < senders*per; i++ {
			if _, err := recv.Recv(AnySource, 5); err != nil {
				t.Error(err)
				return
			}
			got++
		}
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d messages", got, senders*per)
	}
}

func BenchmarkSendRecvSameNode(b *testing.B) {
	f := fabric(b, 1, 2)
	a, c := f.Endpoint(0), f.Endpoint(1)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(1, 1, payload, testMeter); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZeroLengthSend(t *testing.T) {
	f := fabric(t, 1, 2)
	if err := f.Endpoint(0).Send(1, 9, nil, testMeter); err != nil {
		t.Fatal(err)
	}
	msg, err := f.Endpoint(1).Recv(0, 9)
	if err != nil || len(msg.Payload) != 0 {
		t.Fatalf("zero-length message = %v, %v", msg, err)
	}
}

func TestReadAfterUnexposeBlocksUntilReexpose(t *testing.T) {
	f := fabric(t, 1, 2)
	owner, reader := f.Endpoint(0), f.Endpoint(1)
	key := BufKey{Name: "v", Version: 1}
	if err := owner.Expose(key, 1); err != nil {
		t.Fatal(err)
	}
	if err := owner.Unexpose(key); err != nil {
		t.Fatal(err)
	}
	done := make(chan any, 1)
	go func() {
		var got any
		if err := readOne(reader, 0, key, testMeter, 1, func(p any) { got = p }); err != nil {
			done <- err
			return
		}
		done <- got
	}()
	select {
	case v := <-done:
		t.Fatalf("Read returned %v before re-expose", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := owner.Expose(key, 2); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("Read returned %v, want the re-exposed payload", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Read never returned")
	}
}

func TestHandlerReplacement(t *testing.T) {
	f := fabric(t, 1, 2)
	server, client := f.Endpoint(0), f.Endpoint(1)
	server.RegisterHandler("svc", func(src cluster.CoreID, req any) (any, error) { return 1, nil })
	server.RegisterHandler("svc", func(src cluster.CoreID, req any) (any, error) { return 2, nil })
	resp, err := client.Call(0, "svc", nil, testMeter, 0, 0)
	if err != nil || resp.(int) != 2 {
		t.Fatalf("Call = %v, %v", resp, err)
	}
}

func TestCallHandlerError(t *testing.T) {
	f := fabric(t, 1, 2)
	f.Endpoint(0).RegisterHandler("bad", func(src cluster.CoreID, req any) (any, error) {
		return nil, fmt.Errorf("handler exploded")
	})
	if _, err := f.Endpoint(1).Call(0, "bad", nil, testMeter, 0, 0); err == nil {
		t.Fatal("handler error swallowed")
	}
}
