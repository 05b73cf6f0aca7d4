package cods

import (
	"errors"
	"testing"
	"time"

	"github.com/insitu/cods/internal/geometry"
	"github.com/insitu/cods/internal/obs"
)

// streamFill produces version-dependent row-major data for a region, so a
// read of the wrong version is detectable cell by cell.
func streamFill(b geometry.BBox, ver int) []float64 {
	data := fillRegion(b)
	for i := range data {
		data[i] += 1e6 * float64(ver)
	}
	return data
}

func checkStreamRegion(t *testing.T, region geometry.BBox, ver int, got []float64) {
	t.Helper()
	want := streamFill(region, ver)
	if len(got) != len(want) {
		t.Fatalf("v%d: result length %d, want %d", ver, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("v%d cell %d = %v, want %v", ver, i, got[i], want[i])
		}
	}
}

func TestStreamDeclareValidation(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	if err := sp.DeclareStream("", StreamConfig{Producers: 1, MaxLag: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if err := sp.DeclareStream("u", StreamConfig{Producers: 0, MaxLag: 1}); err == nil {
		t.Error("zero producers accepted")
	}
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 0}); err == nil {
		t.Error("zero lag bound accepted")
	}
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 1, Policy: StreamPolicy(7)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 1}); err == nil {
		t.Error("duplicate declaration accepted")
	}
	h := sp.HandleAt(0, 1, "t")
	if _, err := h.Publish("w", 0, geometry.BoxFromSize([]int{8}), make([]float64, 8)); err == nil {
		t.Error("publish on undeclared stream accepted")
	}
	if _, err := h.Subscribe("w"); err == nil {
		t.Error("subscribe on undeclared stream accepted")
	}
	if _, _, err := sp.StreamState("w"); err == nil {
		t.Error("state of undeclared stream accepted")
	}
}

// TestStreamWindowedReads drives one producer and one cursor through
// three versions: windows are byte-exact per version, the latest-value
// read follows the watermark, acknowledged versions are retired (the
// floor rises and re-reads fail), and the end of the stream surfaces as
// ErrStreamEnded rather than a hang.
func TestStreamWindowedReads(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 4}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cons := sp.HandleAt(1, 2, "cons")
	cur, err := cons.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	if got := cur.Latest(); got != -1 {
		t.Fatalf("watermark before first publish = %d, want -1", got)
	}
	for ver := 0; ver < 3; ver++ {
		got, err := prod.Publish("u", 0, region, streamFill(region, ver))
		if err != nil {
			t.Fatal(err)
		}
		if got != ver {
			t.Fatalf("publish stamped v%d, want v%d", got, ver)
		}
	}
	if got := cur.Latest(); got != 2 {
		t.Fatalf("watermark = %d, want 2", got)
	}

	win, err := cur.GetWindow(region, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 3 {
		t.Fatalf("window length %d, want 3", len(win))
	}
	for ver, data := range win {
		checkStreamRegion(t, region, ver, data)
	}
	data, ver, err := cur.GetLatest(region)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("latest read v%d, want v2", ver)
	}
	checkStreamRegion(t, region, 2, data)

	// Acknowledge the first two versions: they are retired, the floor
	// rises, and a window reaching back fails as retired.
	if err := cur.Advance(2); err != nil {
		t.Fatal(err)
	}
	if got := cur.Floor(); got != 2 {
		t.Fatalf("floor after advance = %d, want 2", got)
	}
	if _, err := cur.GetWindow(region, 0, 2); err == nil {
		t.Fatal("window into retired versions succeeded")
	}
	if latest, floor, err := sp.StreamState("u"); err != nil || latest != 2 || floor != 2 {
		t.Fatalf("StreamState = %d/%d (%v), want 2/2", latest, floor, err)
	}

	if err := sp.ClosePublisher("u", 0); err != nil {
		t.Fatal(err)
	}
	if err := sp.ClosePublisher("u", 0); err == nil {
		t.Fatal("double close accepted")
	}
	if _, err := prod.Publish("u", 0, region, streamFill(region, 3)); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("publish after close: %v, want ErrStreamEnded", err)
	}
	if _, err := cur.GetWindow(region, 2, 3); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("window past final watermark: %v, want ErrStreamEnded", err)
	}
	// The final retained version still serves.
	if _, ver, err := cur.GetLatest(region); err != nil || ver != 2 {
		t.Fatalf("latest after end = v%d (%v), want v2", ver, err)
	}

	pub, con, drop := sp.StreamStats()
	if pub != 3 || con != 2 || drop != 0 {
		t.Fatalf("stats = %d/%d/%d, want 3/2/0", pub, con, drop)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err == nil {
		t.Fatal("double cursor close accepted")
	}
	if err := cur.Advance(3); err == nil {
		t.Fatal("advance on closed cursor accepted")
	}
}

// TestStreamBackpressure pins the lag bound: with MaxLag 1 the producer's
// second publish must wait for the cursor's acknowledgment of the first.
func TestStreamBackpressure(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 1, Policy: Backpressure}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cons := sp.HandleAt(1, 2, "cons")
	cur, err := cons.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.Publish("u", 0, region, streamFill(region, 0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := prod.Publish("u", 0, region, streamFill(region, 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("publish of v1 did not block on the lagging cursor")
	default:
	}
	win, err := cur.GetWindow(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamRegion(t, region, 0, win[0])
	if err := cur.Advance(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := cur.Latest(); got != 1 {
		t.Fatalf("watermark = %d, want 1", got)
	}
}

// TestStreamDropOldest pins the drop policy: a cursor more than MaxLag
// versions behind is bumped past force-retired versions, each skipped
// version counts as dropped, and the skipped data is gone from the block
// stores and the DHT.
func TestStreamDropOldest(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 1, Policy: DropOldest}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cons := sp.HandleAt(1, 2, "cons")
	cur, err := cons.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	for ver := 0; ver < 3; ver++ {
		if _, err := prod.Publish("u", 0, region, streamFill(region, ver)); err != nil {
			t.Fatal(err)
		}
	}
	// Watermark 2, lag bound 1: versions 0 and 1 were force-retired and
	// the idle cursor bumped past both.
	if got := cur.Pos(); got != 2 {
		t.Fatalf("cursor bumped to %d, want 2", got)
	}
	if got := cur.Floor(); got != 2 {
		t.Fatalf("floor = %d, want 2", got)
	}
	pub, con, drop := sp.StreamStats()
	if pub != 3 || con != 0 || drop != 2 {
		t.Fatalf("stats = %d/%d/%d, want 3/0/2", pub, con, drop)
	}
	// The retained version still reads; the dropped ones are gone.
	win, err := cur.GetWindow(region, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamRegion(t, region, 2, win[0])
	if _, err := cur.GetWindow(region, 0, 2); err == nil {
		t.Fatal("window into dropped versions succeeded")
	}
	cl := sp.Lookup().ClientAt(0)
	for ver := 0; ver < 2; ver++ {
		entries, err := cl.Query("check", 2, "u", ver, region)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("dropped v%d still has %d DHT entries", ver, len(entries))
		}
	}
}

// TestStreamMultiProducerWatermark pins per-rank version stamping: the
// complete watermark trails the slowest rank, and a window blocked on an
// incomplete version unblocks the moment the last rank stages it.
func TestStreamMultiProducerWatermark(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	left := geometry.NewBBox(geometry.Point{0}, geometry.Point{4})
	right := geometry.NewBBox(geometry.Point{4}, geometry.Point{8})
	whole := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 2, MaxLag: 2}); err != nil {
		t.Fatal(err)
	}
	p0 := sp.HandleAt(0, 1, "p0")
	p1 := sp.HandleAt(1, 1, "p1")
	cons := sp.HandleAt(0, 2, "cons")
	cur, err := cons.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Publish("u", 0, left, streamFill(left, 0)); err != nil {
		t.Fatal(err)
	}
	if got := cur.Latest(); got != -1 {
		t.Fatalf("watermark with rank 1 unstaged = %d, want -1", got)
	}
	done := make(chan [][]float64, 1)
	errc := make(chan error, 1)
	go func() {
		win, err := cur.GetWindow(whole, 0, 0)
		if err != nil {
			errc <- err
			return
		}
		done <- win
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("window over an incomplete version returned")
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if _, err := p1.Publish("u", 1, right, streamFill(right, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case win := <-done:
		checkStreamRegion(t, whole, 0, win[0])
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("window still blocked after the version completed")
	}
	if got := cur.Latest(); got != 0 {
		t.Fatalf("watermark = %d, want 0", got)
	}
	if _, err := p0.Publish("u", 2, left, streamFill(left, 1)); err == nil {
		t.Fatal("out-of-range producer index accepted")
	}
}

// TestStreamSubscribeFromClamp pins the resume path: a cursor reopening
// below the floor is clamped up to it, and one reopening at its old
// position continues gap-free.
func TestStreamSubscribeFromClamp(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 8}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cons := sp.HandleAt(1, 2, "cons")
	cur, err := cons.Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	for ver := 0; ver < 4; ver++ {
		if _, err := prod.Publish("u", 0, region, streamFill(region, ver)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cur.Advance(2); err != nil { // retires 0 and 1
		t.Fatal(err)
	}
	pos := cur.Pos()
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := cons.SubscribeFrom("u", pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Pos(); got != pos {
		t.Fatalf("resumed at %d, want %d", got, pos)
	}
	win, err := resumed.GetWindow(region, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkStreamRegion(t, region, 2, win[0])
	checkStreamRegion(t, region, 3, win[1])
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening below the floor clamps up.
	clamped, err := cons.SubscribeFrom("u", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := clamped.Pos(); got != 2 {
		t.Fatalf("cursor below floor resumed at %d, want clamp to 2", got)
	}
	if _, err := cons.SubscribeFrom("u", -1); err == nil {
		t.Fatal("negative resume position accepted")
	}
}

func TestStreamCursorValidation(t *testing.T) {
	_, sp := testRig(t, 1, 2, []int{8})
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("u", StreamConfig{Producers: 1, MaxLag: 4}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cur, err := sp.HandleAt(1, 2, "cons").Subscribe("u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.Publish("u", 0, region, streamFill(region, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.GetWindow(region, 1, 0); err == nil {
		t.Error("inverted window accepted")
	}
	if err := cur.Advance(2); err == nil {
		t.Error("advance past watermark accepted")
	}
	if err := cur.Advance(1); err != nil {
		t.Fatal(err)
	}
	if err := cur.Advance(0); err == nil {
		t.Error("backwards advance accepted")
	}
	if err := sp.ClosePublisher("u", 1); err == nil {
		t.Error("out-of-range publisher close accepted")
	}
}

// TestStreamLagGaugeIsPerStream: a stream has one lag gauge,
// cods.stream.lag.<var>, holding the slowest cursor's lag — latest + 1 minus
// the lowest cursor position. A thousand subscribe/close cycles leave the
// number of registry gauges unchanged.
func TestStreamLagGaugeIsPerStream(t *testing.T) {
	prev := obs.Enabled()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(prev) })
	_, sp := testRig(t, 1, 2, []int{8})
	region := geometry.BoxFromSize([]int{8})
	if err := sp.DeclareStream("lagged", StreamConfig{Producers: 1, MaxLag: 8}); err != nil {
		t.Fatal(err)
	}
	prod := sp.HandleAt(0, 1, "prod")
	cons := sp.HandleAt(1, 2, "cons")
	slow, err := cons.Subscribe("lagged")
	if err != nil {
		t.Fatal(err)
	}
	for ver := 0; ver < 3; ver++ {
		if _, err := prod.Publish("lagged", 0, region, streamFill(region, ver)); err != nil {
			t.Fatal(err)
		}
	}
	gauges := func() int { return len(obs.Default.Snapshot().Gauges) }
	before := gauges()
	for i := 0; i < 1000; i++ {
		cur, err := cons.SubscribeFrom("lagged", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := gauges(); after != before {
		t.Fatalf("1,000 subscribe/close cycles moved the registry from %d to %d gauges", before, after)
	}
	fast, err := cons.SubscribeFrom("lagged", 2)
	if err != nil {
		t.Fatal(err)
	}
	lag := obs.G("cods.stream.lag.lagged")
	check := func(what string) {
		t.Helper()
		want := int64(slow.Latest() + 1 - min(slow.Pos(), fast.Pos()))
		if got := lag.Value(); got != want {
			t.Fatalf("%s: lag gauge = %d, want latest + 1 - lowest cursor = %d", what, got, want)
		}
	}
	check("slow cursor at 0")
	if err := slow.Advance(1); err != nil {
		t.Fatal(err)
	}
	check("slow cursor advanced to 1")
	if err := slow.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64(fast.Latest() + 1 - fast.Pos())
	if got := lag.Value(); got != want {
		t.Fatalf("after the slow cursor closed: lag gauge = %d, want %d", got, want)
	}
}
