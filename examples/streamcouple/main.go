// Streaming coupling: a producer application publishes a bounded-lag
// stream of field versions while a consumer follows it through a cursor —
// the loosely synchronized producer/consumer pattern of in-situ pipelines
// where the two sides advance at their own rates instead of in lock step.
//
// The stream is declared once with its producer count, lag bound and
// policy. Each producer rank publishes its piece of the domain as
// successive versions; under the Backpressure policy a producer blocks
// whenever it would run more than MaxLag versions ahead of the slowest
// cursor, so every consumer observes every version, gap-free, and memory
// stays bounded: versions below every cursor are retired automatically.
//
// Run with: go run ./examples/streamcouple
package main

import (
	"errors"
	"fmt"
	"log"

	cods "github.com/insitu/cods"
)

const (
	producerID = 1
	consumerID = 2
	rounds     = 6
	maxLag     = 2
)

func main() {
	fw, err := cods.New(cods.Config{
		Nodes:        4,
		CoresPerNode: 2,
		Domain:       []int{32, 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	prodDecomp, err := fw.BlockedDecomposition([]int{2, 2}) // 4 producer tasks
	if err != nil {
		log.Fatal(err)
	}
	consDecomp, err := fw.BlockedDecomposition([]int{2, 1}) // 2 consumer tasks
	if err != nil {
		log.Fatal(err)
	}

	// One monotone version sequence per producer piece; with one piece per
	// rank the producer index is the rank itself.
	if err := fw.DeclareStream("field", cods.StreamConfig{
		Producers: 4,
		MaxLag:    maxLag,
		Policy:    cods.Backpressure,
	}); err != nil {
		log.Fatal(err)
	}

	err = fw.RegisterApp(cods.AppSpec{
		ID:     producerID,
		Decomp: prodDecomp,
		Run: func(ctx *cods.AppContext) error {
			pieces := ctx.Decomp.Region(ctx.Rank)
			for round := 0; round < rounds; round++ {
				for _, blk := range pieces {
					// Every cell of version v carries the value v, so the
					// consumer can check version routing cell by cell.
					field := make([]float64, blk.Volume())
					for i := range field {
						field[i] = float64(round)
					}
					ver, err := ctx.Space.Publish("field", ctx.Rank, blk, field)
					if err != nil {
						return err
					}
					if ver != round {
						return fmt.Errorf("rank %d stamped version %d, want %d", ctx.Rank, ver, round)
					}
				}
			}
			// Closing the producer index ends the stream once every rank has.
			return ctx.Space.ClosePublisher("field", ctx.Rank)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	err = fw.RegisterApp(cods.AppSpec{
		ID:     consumerID,
		Decomp: consDecomp,
		Run: func(ctx *cods.AppContext) error {
			cur, err := ctx.Space.Subscribe("field")
			if err != nil {
				return err
			}
			defer cur.Close()
			// Meet the other consumer rank before reading: a cursor opened
			// after its sibling advanced would start past the versions the
			// stream already retired.
			if err := ctx.Comm.Barrier(); err != nil {
				return err
			}
			observed := 0
			for {
				pos := cur.Pos()
				endOfStream := false
				for _, region := range ctx.Decomp.Region(ctx.Rank) {
					window, err := cur.GetWindow(region, pos, pos)
					if errors.Is(err, cods.ErrStreamEnded) {
						endOfStream = true
						break
					}
					if err != nil {
						return err
					}
					for i, v := range window[0] {
						if v != float64(pos) {
							return fmt.Errorf("rank %d v%d cell %d: got %v", ctx.Rank, pos, i, v)
						}
					}
				}
				if endOfStream {
					break
				}
				if err := cur.Advance(pos + 1); err != nil {
					return err
				}
				observed++
			}
			if observed != rounds {
				return fmt.Errorf("rank %d observed %d versions, want %d", ctx.Rank, observed, rounds)
			}
			fmt.Printf("consumer rank %d followed %d versions gap-free\n", ctx.Rank, observed)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A bundle runs producer and consumer concurrently — the stream is the
	// only synchronization between them.
	dag, err := cods.NewWorkflow([]int{producerID, consumerID}, nil,
		[][]int{{producerID, consumerID}})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fw.RunWorkflow(dag, cods.DataCentric); err != nil {
		log.Fatal(err)
	}
	published, consumed, dropped := fw.StreamStats()
	fmt.Printf("stream: %d versions published, %d consumed, %d dropped (lag bound %d, backpressure)\n",
		published, consumed, dropped, maxLag)
	if dropped != 0 {
		log.Fatalf("backpressure must never drop, saw %d", dropped)
	}
}
