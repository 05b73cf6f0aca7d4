package cods_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/cluster"
)

func newFramework(t testing.TB) *cods.Framework {
	t.Helper()
	fw, err := cods.New(cods.Config{Nodes: 4, CoresPerNode: 4, Domain: []int{16, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestNewValidation(t *testing.T) {
	if _, err := cods.New(cods.Config{Nodes: 0, CoresPerNode: 4, Domain: []int{8}}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := cods.New(cods.Config{Nodes: 1, CoresPerNode: 1}); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestDecompositionConstructors(t *testing.T) {
	fw := newFramework(t)
	b, err := fw.BlockedDecomposition([]int{2, 2, 2})
	if err != nil || b.NumTasks() != 8 {
		t.Fatalf("blocked: %v, %v", b, err)
	}
	c, err := fw.CyclicDecomposition([]int{2, 2, 2})
	if err != nil || c.NumTasks() != 8 {
		t.Fatalf("cyclic: %v, %v", c, err)
	}
	bc, err := fw.BlockCyclicDecomposition([]int{2, 2, 2}, []int{4, 4, 4})
	if err != nil || bc.NumTasks() != 8 {
		t.Fatalf("block-cyclic: %v, %v", bc, err)
	}
	if _, err := fw.BlockedDecomposition([]int{2}); err == nil {
		t.Error("grid rank mismatch accepted")
	}
}

// End-to-end through the public API: a concurrently coupled pair exchanges
// a field, with verification, under both policies.
func TestPublicAPIConcurrentWorkflow(t *testing.T) {
	for _, policy := range []cods.Policy{cods.DataCentric, cods.RoundRobin} {
		fw := newFramework(t)
		prodDc, err := fw.BlockedDecomposition([]int{2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		consDc, err := fw.BlockedDecomposition([]int{2, 2, 1})
		if err != nil {
			t.Fatal(err)
		}
		fill := func(b cods.BBox) []float64 {
			data := make([]float64, b.Volume())
			i := 0
			b.Each(func(p cods.Point) {
				data[i] = float64(p[0]*1000 + p[1]*10 + p[2])
				i++
			})
			return data
		}
		if err := fw.RegisterApp(cods.AppSpec{
			ID: 1, Decomp: prodDc,
			Run: func(ctx *cods.AppContext) error {
				for _, blk := range ctx.Decomp.Region(ctx.Rank) {
					if err := ctx.Space.PutConcurrent("u", 0, blk, fill(blk)); err != nil {
						return err
					}
				}
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := fw.RegisterApp(cods.AppSpec{
			ID: 2, Decomp: consDc,
			Run: func(ctx *cods.AppContext) error {
				info := ctx.Producers[1]
				for _, region := range ctx.Decomp.Region(ctx.Rank) {
					got, err := ctx.Space.GetConcurrent(info, "u", 0, region)
					if err != nil {
						return err
					}
					want := fill(region)
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("cell %d: got %v want %v", i, got[i], want[i])
						}
					}
				}
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := fw.RunWorkflowText("APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n", policy)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TasksRun != 12 {
			t.Fatalf("TasksRun = %d", rep.TasksRun)
		}
		tr := fw.Traffic()
		total := tr.CoupledNetwork + tr.CoupledShm
		if total != 16*16*16*cods.ElemSize {
			t.Fatalf("coupled bytes = %d", total)
		}
	}
}

func TestPublicAPISequentialWorkflowAndPhaseTime(t *testing.T) {
	fw := newFramework(t)
	prodDc, err := fw.BlockedDecomposition([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	consDc, err := fw.BlockedDecomposition([]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 1, Decomp: prodDc,
		Run: func(ctx *cods.AppContext) error {
			for _, blk := range ctx.Decomp.Region(ctx.Rank) {
				if err := ctx.Space.PutSequential("state", 0, blk, make([]float64, blk.Volume())); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 2, Decomp: consDc, ReadsVar: "state",
		Run: func(ctx *cods.AppContext) error {
			ctx.Space.SetPhase("couple:2:0")
			for _, region := range ctx.Decomp.Region(ctx.Rank) {
				if _, err := ctx.Space.GetSequential("state", 0, region); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := cods.NewWorkflow([]int{1, 2}, [][2]int{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RunWorkflow(d, cods.DataCentric); err != nil {
		t.Fatal(err)
	}
	secs, err := fw.PhaseTime("couple:2")
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Fatalf("PhaseTime = %v", secs)
	}
}

func TestParseWorkflowPublic(t *testing.T) {
	d, err := cods.ParseWorkflow(strings.NewReader("APP_ID 1\nAPP_ID 2\nPARENT_APPID 1 CHILD_APPID 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Apps) != 2 || len(d.Bundles) != 2 {
		t.Fatalf("parsed %+v", d)
	}
}

func TestResetTraffic(t *testing.T) {
	fw := newFramework(t)
	fw.ResetTraffic()
	tr := fw.Traffic()
	if tr.CoupledNetwork != 0 || tr.ControlNetwork != 0 {
		t.Fatal("fresh framework has traffic")
	}
}

func TestNewBBox(t *testing.T) {
	b := cods.NewBBox(cods.Point{0, 0, 0}, cods.Point{10, 10, 20})
	if b.Volume() != 2000 {
		t.Fatalf("Volume = %d", b.Volume())
	}
	if b.String() != "<0,0,0; 10,10,20>" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestWriteFlows(t *testing.T) {
	fw := newFramework(t)
	prodDc, err := fw.BlockedDecomposition([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterApp(cods.AppSpec{
		ID: 1, Decomp: prodDc,
		Run: func(ctx *cods.AppContext) error {
			blk := ctx.Decomp.Region(ctx.Rank)[0]
			return ctx.Space.PutSequential("x", 0, blk, make([]float64, blk.Volume()))
		},
	}); err != nil {
		t.Fatal(err)
	}
	d, err := cods.NewWorkflow([]int{1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RunWorkflow(d, cods.DataCentric); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := fw.WriteFlows(&buf); err != nil {
		t.Fatal(err)
	}
	// Every line is one flow in exactly the six keys of the -flows format,
	// and the lines sum, class by class, to the machine's byte totals.
	keys := []string{"phase", "src", "dst", "bytes", "medium", "class"}
	sums := map[string]int64{}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, line := range lines {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var fl cluster.Flow
		if err := dec.Decode(&fl); err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		for _, k := range keys {
			if _, ok := fields[k]; !ok || len(fields) != len(keys) {
				t.Fatalf("line %d %q: want exactly the keys %q", i+1, line, keys)
			}
		}
		sums[fl.Class] += fl.Bytes
	}
	mt := fw.MachineInfo().Metrics()
	var total int64
	for _, class := range []cluster.Class{cluster.InterApp, cluster.IntraApp, cluster.Control} {
		want := mt.Bytes(class, cluster.SharedMemory) + mt.Bytes(class, cluster.Network)
		if got := sums[class.String()]; got != want {
			t.Errorf("%s flows sum to %d bytes, the metrics to %d", class, got, want)
		}
		total += want
	}
	if total == 0 {
		t.Fatalf("the run recorded no bytes:\n%.200s", buf.String())
	}

	// A flow recorded without medium or class leaves both keys out.
	mt.Merge(cluster.MetricsSnapshot{Flows: []cluster.Flow{{Phase: "p", Src: 1, Dst: 2, Bytes: 9}}}, cluster.MetricsSnapshot{})
	buf.Reset()
	if err := fw.WriteFlows(&buf); err != nil {
		t.Fatal(err)
	}
	const bare = `{"phase":"p","src":1,"dst":2,"bytes":9}` + "\n"
	if !strings.HasSuffix(buf.String(), "\n"+bare) {
		t.Fatalf("unlabelled flow not written as %q:\n%s", bare, buf.String())
	}
}

func TestMachineInfo(t *testing.T) {
	fw := newFramework(t)
	if fw.MachineInfo().TotalCores() != 16 {
		t.Fatalf("TotalCores = %d", fw.MachineInfo().TotalCores())
	}
	if fw.Domain().Volume() != 16*16*16 {
		t.Fatalf("Domain volume = %d", fw.Domain().Volume())
	}
}
