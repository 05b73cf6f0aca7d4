package mpi

import (
	"fmt"
	"sync"
	"testing"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/transport"
)

// runRanks creates a communicator over the first n cores of a machine with
// the given shape and runs fn concurrently on every rank, failing the test
// on any error.
func runRanks(t *testing.T, nodes, coresPerNode, n int, fn func(c *Comm) error) *cluster.Machine {
	t.Helper()
	m, err := cluster.NewMachine(nodes, coresPerNode)
	if err != nil {
		t.Fatal(err)
	}
	f := transport.NewFabric(m)
	cores := make([]cluster.CoreID, n)
	for i := range cores {
		cores[i] = cluster.CoreID(i)
	}
	comms, err := NewComms(f, cores, 1, "test")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return m
}

func TestNewCommsValidation(t *testing.T) {
	m, _ := cluster.NewMachine(1, 4)
	f := transport.NewFabric(m)
	if _, err := NewComms(f, nil, 1, "p"); err == nil {
		t.Error("empty communicator accepted")
	}
	if _, err := NewComms(f, []cluster.CoreID{0, 0}, 1, "p"); err == nil {
		t.Error("duplicate core accepted")
	}
}

func TestSendRecvRanks(t *testing.T) {
	runRanks(t, 2, 2, 4, func(c *Comm) error {
		// Ring: send rank id to the right, receive from the left.
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		got, err := c.SendRecv(right, 3, []byte{byte(c.Rank())}, left, 3)
		if err != nil {
			return err
		}
		if got[0] != byte(left) {
			return fmt.Errorf("rank %d got %d, want %d", c.Rank(), got[0], left)
		}
		return nil
	})
}

func TestRecvReportsSourceRank(t *testing.T) {
	runRanks(t, 1, 3, 3, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, src, err := c.Recv(AnySource, 9)
				if err != nil {
					return err
				}
				seen[src] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources = %v", seen)
			}
			return nil
		}
		return c.Send(0, 9, []byte("x"))
	})
}

func TestSendValidation(t *testing.T) {
	runRanks(t, 1, 2, 2, func(c *Comm) error {
		if err := c.Send(5, 1, nil); err == nil {
			return fmt.Errorf("out-of-range rank accepted")
		}
		if _, _, err := c.Recv(17, 1); err == nil {
			return fmt.Errorf("out-of-range source accepted")
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	// Run several barriers; correctness = nobody deadlocks or errors, and a
	// shared counter checked between barriers shows synchronization.
	var mu sync.Mutex
	phase := 0
	counts := make(map[int]int)
	runRanks(t, 2, 3, 5, func(c *Comm) error {
		for p := 0; p < 3; p++ {
			mu.Lock()
			if phase != p {
				mu.Unlock()
				return fmt.Errorf("rank %d entered phase %d during phase %d", c.Rank(), p, phase)
			}
			counts[p]++
			last := counts[p] == c.Size()
			if last {
				phase++
			}
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	for p := 0; p < 3; p++ {
		if counts[p] != 5 {
			t.Fatalf("phase %d count = %d", p, counts[p])
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 5; root++ {
		root := root
		runRanks(t, 2, 3, 5, func(c *Comm) error {
			var data []byte
			if c.Rank() == root {
				data = []byte(fmt.Sprintf("root=%d", root))
			}
			got, err := c.Bcast(root, data)
			if err != nil {
				return err
			}
			want := fmt.Sprintf("root=%d", root)
			if string(got) != want {
				return fmt.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
			}
			return nil
		})
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	runRanks(t, 1, 2, 2, func(c *Comm) error {
		if _, err := c.Bcast(9, nil); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	runRanks(t, 2, 2, 4, func(c *Comm) error {
		parts, err := c.Gather(2, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root got parts")
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if parts[r][0] != byte(r*10) {
				return fmt.Errorf("parts[%d] = %v", r, parts[r])
			}
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	runRanks(t, 2, 3, 6, func(c *Comm) error {
		v := []float64{float64(c.Rank()), 1}
		out, err := c.Reduce(0, Sum, v)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if out[0] != 15 || out[1] != 6 { // 0+..+5, 6 ones
				return fmt.Errorf("Reduce = %v", out)
			}
		} else if out != nil {
			return fmt.Errorf("non-root got result")
		}
		return nil
	})
}

func TestAllreduceMaxMin(t *testing.T) {
	runRanks(t, 2, 2, 4, func(c *Comm) error {
		v := []float64{float64(c.Rank())}
		mx, err := c.Allreduce(Max, v)
		if err != nil {
			return err
		}
		if mx[0] != 3 {
			return fmt.Errorf("rank %d Allreduce(Max) = %v", c.Rank(), mx)
		}
		mn, err := c.Allreduce(Min, v)
		if err != nil {
			return err
		}
		if mn[0] != 0 {
			return fmt.Errorf("rank %d Allreduce(Min) = %v", c.Rank(), mn)
		}
		return nil
	})
}

func TestCommSplitGroups(t *testing.T) {
	// 6 ranks: colors 0,1,0,1,0,1 -> two groups of 3. Key reverses order in
	// group 1.
	runRanks(t, 3, 2, 6, func(c *Comm) error {
		color := c.Rank() % 2
		key := c.Rank()
		if color == 1 {
			key = -c.Rank()
		}
		sub, err := c.CommSplit(color, key)
		if err != nil {
			return err
		}
		if sub == nil {
			return fmt.Errorf("rank %d got nil subcommunicator", c.Rank())
		}
		if sub.Size() != 3 {
			return fmt.Errorf("group size = %d", sub.Size())
		}
		// Group 0 (old ranks 0,2,4 by key asc) -> new ranks 0,1,2.
		// Group 1 (old ranks 1,3,5 by key desc) -> 5,3,1 -> new 0,1,2.
		wantRank := map[int]int{0: 0, 2: 1, 4: 2, 5: 0, 3: 1, 1: 2}
		if sub.Rank() != wantRank[c.Rank()] {
			return fmt.Errorf("old rank %d new rank %d, want %d", c.Rank(), sub.Rank(), wantRank[c.Rank()])
		}
		// The subcommunicator must be functional: allreduce the old ranks.
		sum, err := sub.Allreduce(Sum, []float64{float64(c.Rank())})
		if err != nil {
			return err
		}
		want := 6.0 // 0+2+4
		if color == 1 {
			want = 9.0 // 1+3+5
		}
		if sum[0] != want {
			return fmt.Errorf("group %d sum = %v, want %v", color, sum[0], want)
		}
		return nil
	})
}

func TestCommSplitUndefined(t *testing.T) {
	runRanks(t, 1, 4, 4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = Undefined
		}
		sub, err := c.CommSplit(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("undefined color got a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			return fmt.Errorf("split size wrong")
		}
		return sub.Barrier()
	})
}

func TestIntraAppMetering(t *testing.T) {
	m := runRanks(t, 2, 1, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, make([]byte, 64))
		}
		_, _, err := c.Recv(0, 1)
		return err
	})
	// Cores 0 and 1 are on different nodes (1 core per node).
	if got := m.Metrics().Bytes(cluster.IntraApp, cluster.Network); got != 64 {
		t.Fatalf("intra-app network bytes = %d, want 64", got)
	}
	if got := m.Metrics().Bytes(cluster.InterApp, cluster.Network); got != 0 {
		t.Fatalf("inter-app bytes = %d, want 0", got)
	}
}

func TestFloat64Serialization(t *testing.T) {
	in := []float64{0, -1.5, 3.14159, 1e300}
	out := BytesToFloat64s(Float64sToBytes(in))
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, in[i], out[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misaligned bytes")
		}
	}()
	BytesToFloat64s(make([]byte, 7))
}

func TestTagRangePanics(t *testing.T) {
	runRanks(t, 1, 1, 1, func(c *Comm) error {
		defer func() {
			if recover() == nil {
				t.Error("huge user tag accepted")
			}
		}()
		_ = c.Send(0, 1<<25, nil)
		return nil
	})
}

func BenchmarkBarrier8(b *testing.B) {
	m, _ := cluster.NewMachine(2, 4)
	f := transport.NewFabric(m)
	cores := make([]cluster.CoreID, 8)
	for i := range cores {
		cores[i] = cluster.CoreID(i)
	}
	comms, _ := NewComms(f, cores, 1, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := comms[r].Barrier(); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}
