package apps

import (
	"testing"
	"time"

	"github.com/insitu/cods/internal/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/runtime"
	"github.com/insitu/cods/internal/workflow"
)

// TestStreamConsumerLateRank: a consumer rank whose task starts late still
// follows every version. Without the barrier after subscribing, rank 0
// consumes the whole stream alone, every version it passes is retired, and
// rank 1's cursor opens at the final floor of an ended stream.
func TestStreamConsumerLateRank(t *testing.T) {
	const rounds = 6
	size := []int{8, 8}
	s := newServer(t, 2, 4, size)
	if err := s.Space().DeclareStream("u", cods.StreamConfig{
		Producers: 4, MaxLag: 2, Policy: cods.Backpressure,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterApp(runtime.AppSpec{
		ID:     1,
		Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2}),
		Run:    NewStreamProducer(StreamProducerConfig{Var: "u", Rounds: rounds}),
	}); err != nil {
		t.Fatal(err)
	}
	consume := NewStreamConsumer(StreamConsumerConfig{Var: "u", Verify: true, Quiet: true})
	if err := s.RegisterApp(runtime.AppSpec{
		ID:     2,
		Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 1}),
		Run: func(ctx *runtime.AppContext) error {
			if ctx.Rank == 1 {
				time.Sleep(50 * time.Millisecond)
			}
			return consume(ctx)
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := workflow.New([]int{1, 2}, nil, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(d, runtime.DataCentric); err != nil {
		t.Fatal(err)
	}
	published, consumed, dropped := s.Space().StreamStats()
	if published != 4*rounds || consumed != 2*rounds || dropped != 0 {
		t.Fatalf("stream stats published %d consumed %d dropped %d, want %d / %d / 0",
			published, consumed, dropped, 4*rounds, 2*rounds)
	}
}
