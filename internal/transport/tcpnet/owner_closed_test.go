package tcpnet_test

import (
	"errors"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/node"
	"github.com/insitu/cods/internal/retry"
	"github.com/insitu/cods/internal/transport"
	"github.com/insitu/cods/internal/transport/tcpnet"
)

// TestClosedOwnerNamedOnBothFabrics: a get whose third owner is closed
// fails at once, under a retry policy, with a *PullError naming that owner
// and its sub-box — in process, where the fabric reads the specs in turn,
// and through node.Cluster, where the owner's node answers its run with
// the closed status. Block i of a 32-cell variable sits on core i of a 4x2
// machine, so core 2 is node 1's first core and the third in schedule
// order.
func TestClosedOwnerNamedOnBothFabrics(t *testing.T) {
	const closed = 2
	for _, routed := range []bool{false, true} {
		name := "in process"
		if routed {
			name = "node.Cluster"
		}
		t.Run(name, func(t *testing.T) {
			m, err := cluster.NewMachine(4, 2)
			if err != nil {
				t.Fatal(err)
			}
			domain := geometry.BoxFromSize([]int{32})
			f := transport.NewFabric(m)
			owners := f // the fabric whose endpoint for core closed holds its block
			if routed {
				c, err := node.NewCluster(f, domain, tcpnet.TestConfig())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				owners = c.Node(m.NodeOf(closed)).Space().Fabric()
			}
			sp, err := cods.NewSpace(f, domain)
			if err != nil {
				t.Fatal(err)
			}
			sp.SetRetryPolicy(retry.Policy{MaxAttempts: 4})
			blocks := make([]geometry.BBox, m.TotalCores())
			for i := range blocks {
				blocks[i] = geometry.NewBBox(geometry.Point{4 * i}, geometry.Point{4 * (i + 1)})
				if err := sp.HandleAt(cluster.CoreID(i), 1, "put").PutSequential("u", 0, blocks[i], tcpnet.FillCells(blocks[i])); err != nil {
					t.Fatal(err)
				}
			}
			// A first get caches the schedule: core 2 also serves node 1's
			// lookup, which the second get must not need.
			h := sp.HandleAt(0, 2, "get")
			if _, err := h.GetSequential("u", 0, domain); err != nil {
				t.Fatal(err)
			}
			owners.Endpoint(closed).Close()

			_, err = h.GetSequential("u", 0, domain)
			var pe *cods.PullError
			if !errors.As(err, &pe) || !errors.Is(err, transport.ErrEndpointClosed) {
				t.Fatalf("err = %v, want a *PullError wrapping ErrEndpointClosed", err)
			}
			if pe.Owner != closed || !pe.Sub.Equal(blocks[closed]) || pe.Attempts != 1 {
				t.Fatalf("PullError names %v on core %d after %d attempts, want %v on core %d after 1",
					pe.Sub, pe.Owner, pe.Attempts, blocks[closed], closed)
			}
		})
	}
}
