package node

import (
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/membership"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// TestCloseReleasesParkedRead: a read parked on a buffer nobody will ever
// expose returns, once its node closes, with an error wrapping
// transport.ErrEndpointClosed — the serving goroutine of a driver's read
// parks exactly there — instead of waiting forever.
func TestCloseReleasesParkedRead(t *testing.T) {
	m, err := cluster.NewMachine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(m, 1, "127.0.0.1:0", geometry.BoxFromSize([]int{8}))
	if err != nil {
		t.Fatal(err)
	}
	spec := transport.ReadSpec{Owner: 1, Key: transport.BufKey{Name: "never exposed"},
		Sub: geometry.BoxFromSize([]int{8}), Bytes: 64}
	done := make(chan error, 1)
	go func() {
		done <- n.Space().Fabric().Endpoint(0).ReadMulti([]transport.ReadSpec{spec},
			transport.Meter{Class: cluster.InterApp}, func(int, any, []byte) error { return nil })
	}()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrEndpointClosed) {
			t.Fatalf("parked read returned %v, want transport.ErrEndpointClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the read is still parked after its node closed")
	}
}

// TestReplaceStartsEmpty: after Replace the driver's next operation
// reaches the replacement, and the node holds neither the block it exposed
// nor its DHT core's records, until membership.Reconcile re-stages the
// block from the put ledger; the block then reads back cell for cell.
func TestReplaceStartsEmpty(t *testing.T) {
	m, err := cluster.NewMachine(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	domain := geometry.BoxFromSize([]int{16})
	f := transport.NewFabric(m)
	nodes, err := NewCluster(f, domain, tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.Close()
	sp, err := cods.NewSpace(f, domain)
	if err != nil {
		t.Fatal(err)
	}
	ledger := membership.NewLedger()
	sp.SetPutRecorder(ledger)
	const owner = cluster.CoreID(3) // node 1
	cells := make([]float64, domain.Volume())
	for i := range cells {
		cells[i] = float64(i + 1)
	}
	if err := sp.HandleAt(owner, 1, "put").PutSequential("u", 0, domain, cells); err != nil {
		t.Fatal(err)
	}
	key := transport.BufKey{Name: "u|" + domain.String()}
	// state reports what node 1 serves now: the block exposed, records in
	// its DHT core's table.
	state := func() (bool, int) {
		t.Helper()
		lost := nodes.Node(1).Space()
		return lost.Fabric().Exposed(owner, key), lost.Lookup().TableSize(1)
	}
	if exposed, records := state(); !exposed || records != 1 {
		t.Fatalf("before the loss node 1 holds exposed=%v and %d records, want the block and its record", exposed, records)
	}

	if _, err := nodes.Replace(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes.Driver().Exposed(owner, key); err != nil {
		t.Fatalf("the driver's first op against the replacement: %v", err)
	}
	if exposed, records := state(); exposed || records != 0 {
		t.Fatalf("the replacement holds exposed=%v and %d records, want an empty node", exposed, records)
	}

	if _, err := membership.Reconcile(sp, ledger, []cluster.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if exposed, records := state(); !exposed || records != 1 {
		t.Fatalf("after the reconcile node 1 holds exposed=%v and %d records, want the block and its record", exposed, records)
	}
	got, err := sp.HandleAt(0, 2, "get").GetSequential("u", 0, domain)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, cells) {
		t.Fatal("the re-staged block reads back different cells")
	}
}
