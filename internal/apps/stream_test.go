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
// follows every version. The producer declares both consumer ranks readers,
// so the versions rank 0 passes wait for rank 1's release instead of
// retiring before rank 1's cursor opens.
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
	consume := NewStreamConsumer(StreamConsumerConfig{Var: "u", Rounds: rounds, Verify: true, Quiet: true})
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

// TestStreamConsumerLateApp: a bundle of a producer and two consumer apps,
// the second of which starts its one task 50 ms late, under backpressure
// with a lag bound of 2. The producer declares all three reading tasks
// readers, so every version waits for the late task's release: it reads all
// six and the stream counts 18 versions consumed. Were versions retired
// once the cursors then subscribed had passed them, it would read none.
func TestStreamConsumerLateApp(t *testing.T) {
	const rounds = 6
	size := []int{8, 8}
	s := newServer(t, 2, 4, size)
	if err := s.Space().DeclareStream("u", cods.StreamConfig{
		Producers: 4, MaxLag: 2, Policy: cods.Backpressure,
	}); err != nil {
		t.Fatal(err)
	}
	consume := NewStreamConsumer(StreamConsumerConfig{Var: "u", Rounds: rounds, Verify: true, Quiet: true})
	for _, spec := range []runtime.AppSpec{
		{ID: 1, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 2}),
			Run: NewStreamProducer(StreamProducerConfig{Var: "u", Rounds: rounds})},
		{ID: 2, Decomp: mustDecomp(t, decomp.Blocked, size, []int{2, 1}), Run: consume},
		{ID: 3, Decomp: mustDecomp(t, decomp.Blocked, size, []int{1, 1}),
			Run: func(ctx *runtime.AppContext) error {
				time.Sleep(50 * time.Millisecond)
				return consume(ctx)
			}},
	} {
		if err := s.RegisterApp(spec); err != nil {
			t.Fatal(err)
		}
	}
	d, err := workflow.New([]int{1, 2, 3}, nil, [][]int{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(d, runtime.DataCentric); err != nil {
		t.Fatal(err)
	}
	published, consumed, dropped := s.Space().StreamStats()
	if published != 4*rounds || consumed != 3*rounds || dropped != 0 {
		t.Fatalf("stream stats published %d consumed %d dropped %d, want %d / %d / 0",
			published, consumed, dropped, 4*rounds, 3*rounds)
	}
	if latest, floor, err := s.Space().StreamState("u"); err != nil || latest != rounds-1 || floor != rounds {
		t.Fatalf("StreamState = %d/%d (%v), want every version retired: %d/%d", latest, floor, err, rounds-1, rounds)
	}
}
