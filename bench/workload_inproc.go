package main

// workflow-inproc: the whole framework in one process — no socket exists.
// A step builds a framework and runs a three-application workflow under the
// data-centric mapping, so mapping/partition, runtime, the in-process
// transport and cluster.Metrics do the work, and the program, not the
// benchmark, decides how much of the coupled data stays inside a node.

import (
	"fmt"

	cods "github.com/insitu/cods"
	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
)

const (
	inprocNodes    = 4
	inprocCores    = 4
	inprocVersions = 4 // concurrently coupled versions per step
)

type workflowInproc struct {
	side   int
	data   field
	dag    *cods.DAG
	decomp [3]*decomp.Decomposition // producer 4×2, concurrent consumer 2×4, sequential consumer 1×4
	blocks [3][]geometry.BBox       // each rank's block, per application
	// bufs[v][rank] is the producer's pre-built block of data variant v:
	// variants 0..3 are the concurrent versions, the last the staged one.
	bufs [inprocVersions + 1][][]float64
	sums [2][][]uint64 // expected checksum per consumer app, rank and get
	// outs[app][rank][get] is what the consumers of the last step read.
	outs  [2][][][]float64
	noop  bool // run the same DAG with empty bodies (runtime.empty_run_ms)
	acc   counters
	bytes int64
	tasks int
	socks int // sockets this process had open before the workload started
}

func newWorkflowInproc(tiny bool) *workflowInproc {
	if tiny {
		return &workflowInproc{side: 64}
	}
	return &workflowInproc{side: 512}
}

func (w *workflowInproc) setup(_ string, seed int64) error {
	w.socks = openSockets()
	w.data = newField(seed)
	domain := geometry.BoxFromSize([]int{w.side, w.side})
	for i, grid := range [][]int{{4, 2}, {2, 4}, {1, 4}} {
		dc, err := decomp.New(decomp.Blocked, domain, grid, nil)
		if err != nil {
			return err
		}
		w.decomp[i] = dc
		for r := 0; r < dc.NumTasks(); r++ {
			w.blocks[i] = append(w.blocks[i], dc.Region(r)[0])
		}
	}
	for v := range w.bufs {
		for _, b := range w.blocks[0] {
			w.bufs[v] = append(w.bufs[v], w.data.fill(v, b))
		}
	}
	for c := 0; c < 2; c++ {
		for _, b := range w.blocks[c+1] {
			var sums []uint64
			if c == 0 {
				for v := 0; v < inprocVersions; v++ {
					sums = append(sums, checksum(w.data.fill(v, b)))
				}
			} else {
				sums = append(sums, checksum(w.data.fill(inprocVersions, b)))
			}
			w.sums[c] = append(w.sums[c], sums)
			w.bytes += int64(len(sums)) * b.Volume() * cods.ElemSize
		}
		w.outs[c] = make([][][]float64, len(w.blocks[c+1]))
	}
	var err error
	w.dag, err = cods.NewWorkflow([]int{1, 2, 3}, [][2]int{{1, 3}}, [][]int{{1, 2}})
	return err
}

// run is one step's work: a fresh framework, the three applications, the
// workflow under the data-centric policy.
func (w *workflowInproc) run() (*cods.Framework, *cods.Report, error) {
	fw, err := cods.New(cods.Config{Nodes: inprocNodes, CoresPerNode: inprocCores, Domain: []int{w.side, w.side}})
	if err != nil {
		return nil, nil, err
	}
	produce := func(ctx *cods.AppContext) error {
		block := w.blocks[0][ctx.Rank]
		for v := 0; v <= inprocVersions; v++ {
			// The space owns a put's slice afterwards, so the body copies
			// out of its pre-built buffer like a simulation copying a field.
			data := append([]float64(nil), w.bufs[v][ctx.Rank]...)
			var err error
			if v < inprocVersions {
				err = ctx.Space.PutConcurrent("c", v, block, data)
			} else {
				err = ctx.Space.PutSequential("s", 0, block, data)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	consume := func(ctx *cods.AppContext) error {
		outs := make([][]float64, 0, inprocVersions)
		for v := 0; v < inprocVersions; v++ {
			out, err := ctx.Space.GetConcurrent(ctx.Producers[1], "c", v, w.blocks[1][ctx.Rank])
			if err != nil {
				return err
			}
			outs = append(outs, out)
		}
		w.outs[0][ctx.Rank] = outs
		return nil
	}
	consumeStaged := func(ctx *cods.AppContext) error {
		out, err := ctx.Space.GetSequential("s", 0, w.blocks[2][ctx.Rank])
		w.outs[1][ctx.Rank] = [][]float64{out}
		return err
	}
	if w.noop {
		nop := func(*cods.AppContext) error { return nil }
		produce, consume, consumeStaged = nop, nop, nop
	}
	for _, spec := range []cods.AppSpec{
		{ID: 1, Decomp: w.decomp[0], Run: produce},
		{ID: 2, Decomp: w.decomp[1], Run: consume},
		{ID: 3, Decomp: w.decomp[2], Run: consumeStaged, ReadsVar: "s"},
	} {
		if err := fw.RegisterApp(spec); err != nil {
			return nil, nil, err
		}
	}
	rep, err := fw.RunWorkflow(w.dag, cods.DataCentric)
	return fw, rep, err
}

func (w *workflowInproc) step(_ int, sc *stepCtx) error {
	var fw *cods.Framework
	var rep *cods.Report
	err := sc.call("run", func(int) (err error) {
		fw, rep, err = w.run()
		return err
	})
	if err != nil {
		return err
	}
	t := fw.Traffic()
	w.acc.shmBytes += t.CoupledShm
	w.acc.netBytes += t.CoupledNetwork
	w.acc.flows += int64(len(fw.MachineInfo().Metrics().Flows("")))
	w.tasks = rep.TasksRun
	return nil
}

func (w *workflowInproc) verify(_ int, full bool) error {
	for c := range w.outs {
		for r, outs := range w.outs[c] {
			if len(outs) != len(w.sums[c][r]) {
				return fmt.Errorf("app %d rank %d read %d regions, want %d", c+2, r, len(outs), len(w.sums[c][r]))
			}
			for g, out := range outs {
				variant := g
				if c == 1 {
					variant = inprocVersions
				}
				if full {
					if err := w.data.check(variant, w.blocks[c+1][r], out); err != nil {
						return err
					}
				} else if got := checksum(out); got != w.sums[c][r][g] {
					return fmt.Errorf("app %d rank %d get %d: checksum %x, want %x", c+2, r, g, got, w.sums[c][r][g])
				}
			}
			w.outs[c][r] = nil
		}
	}
	return nil
}

func (w *workflowInproc) stepBytes() int64            { return w.bytes }
func (w *workflowInproc) snapshot() (counters, error) { return w.acc, nil }
func (w *workflowInproc) pids() []int                 { return nil }
func (w *workflowInproc) close()                      {}

// invariants: the workload opened no socket.
func (w *workflowInproc) invariants(counters, int) []string {
	if n := openSockets() - w.socks; n != 0 {
		return []string{fmt.Sprintf("workflow-inproc: opened %d sockets, want 0", n)}
	}
	return nil
}
