package whatif

// Layer-anchor index suite: the one-pass index anchorsOf agrees, for
// every layer index, with a per-layer linear scan of the view (the
// oracle below) over a baseline, a removal patch and a patch carrying
// Gist's appendix tasks; and the vDNN and Gist bodies enumerate the
// view once per apply, so their cost stays O(tasks), not O(layers ×
// tasks).

import (
	"fmt"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/trace"
)

// oracleLastFwd returns the layer's last forward GPU task live in the
// view by a full scan; ties go to the first task in Tasks() order.
func oracleLastFwd(v core.TaskView, layerIndex int) *core.Task {
	var best *core.Task
	for _, t := range v.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.Phase != trace.Forward || t.LayerIndex != layerIndex {
			continue
		}
		if best == nil || t.TracedStart > best.TracedStart {
			best = t
		}
	}
	return best
}

// oracleFirstBwd returns the layer's first backward GPU task live in
// the view by a full scan; ties go to the first task in Tasks() order.
func oracleFirstBwd(v core.TaskView, layerIndex int) *core.Task {
	var best *core.Task
	for _, t := range v.Tasks() {
		if !t.OnGPU() || !t.HasLayer || t.Phase != trace.Backward || t.LayerIndex != layerIndex {
			continue
		}
		if best == nil || t.TracedStart < best.TracedStart {
			best = t
		}
	}
	return best
}

// anchorGraph builds a mapped baseline graph for a zoo model.
func anchorGraph(t *testing.T, name string) *core.Graph {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := framework.Run(framework.Config{Model: m, Dialect: framework.PyTorch, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	core.MapLayers(g, res.Trace.LayerSpans)
	return g
}

// maxLayerIndex returns the largest layer index any task in the view
// carries.
func maxLayerIndex(v core.TaskView) int {
	m := -1
	for _, t := range v.Tasks() {
		if t.HasLayer && t.LayerIndex > m {
			m = t.LayerIndex
		}
	}
	return m
}

func TestLayerAnchorsMatchOracle(t *testing.T) {
	g := anchorGraph(t, "resnet50")

	removal := core.NewPatch(g)
	if err := OptReconBatchnormRemoval(ReconBatchnormOptions{}).Apply(removal); err != nil {
		t.Fatal(err)
	}
	if removal.NumTasks() >= g.NumTasks() {
		t.Fatalf("reconbn-removal removed nothing (%d tasks, baseline %d)", removal.NumTasks(), g.NumTasks())
	}
	gist := core.NewPatch(g)
	if err := GistPatch(gist, GistOptions{Lossy: true}); err != nil {
		t.Fatal(err)
	}

	views := []struct {
		name string
		v    core.TaskView
	}{
		{"baseline", g},
		{"reconbn-removal", removal},
		{"gist", gist},
	}
	base := anchorsOf(g)
	for _, tc := range views {
		t.Run(tc.name, func(t *testing.T) {
			a := anchorsOf(tc.v)
			moved := 0
			for li := -1; li <= maxLayerIndex(tc.v)+1; li++ {
				wantFwd, wantBwd := oracleLastFwd(tc.v, li), oracleFirstBwd(tc.v, li)
				if got := a.lastFwdGPU(li); got != wantFwd {
					t.Fatalf("layer %d: lastFwd %v, oracle %v", li, got, wantFwd)
				}
				if got := a.firstBwdGPU(li); got != wantBwd {
					t.Fatalf("layer %d: firstBwd %v, oracle %v", li, got, wantBwd)
				}
				if wantFwd != base.lastFwdGPU(li) || wantBwd != base.firstBwdGPU(li) {
					moved++
				}
			}
			// Removed tasks must drop out and Gist's appendix decode
			// kernels (backward GPU tasks of their layer) must show up,
			// so each patch moves some anchor off the baseline's.
			if tc.name != "baseline" && moved == 0 {
				t.Fatal("no anchor differs from the baseline's: the patch does not exercise the effective view")
			}
		})
	}
}

// TestLayerAnchorsTieBreak pins the tie rule the zoo traces never
// exercise: among tasks with equal TracedStart the first in Tasks()
// order is the anchor, and CPU tasks and unmapped layer indices are
// skipped.
func TestLayerAnchorsTieBreak(t *testing.T) {
	g := core.NewGraph()
	var tasks []*core.Task
	for i, spec := range []struct {
		thread core.ThreadID
		phase  trace.Phase
		layer  int
		at     time.Duration
	}{
		{core.Stream(0), trace.Forward, 1, 5},
		{core.Stream(1), trace.Forward, 1, 5},
		{core.CPU(0), trace.Forward, 1, 9},
		{core.Stream(0), trace.Backward, 1, 7},
		{core.Stream(1), trace.Backward, 1, 7},
		{core.CPU(0), trace.Backward, 1, 1},
		{core.Stream(0), trace.Backward, -1, 0},
	} {
		task := g.NewTask(fmt.Sprint("k", i), trace.KindKernel, spec.thread, time.Microsecond)
		task.HasLayer, task.Phase, task.LayerIndex, task.TracedStart = true, spec.phase, spec.layer, spec.at
		g.AppendTask(task)
		tasks = append(tasks, task)
	}
	a := anchorsOf(g)
	if got := a.lastFwdGPU(1); got != tasks[0] {
		t.Fatalf("lastFwd %v, want %v", got, tasks[0])
	}
	if got := a.firstBwdGPU(1); got != tasks[3] {
		t.Fatalf("firstBwd %v, want %v", got, tasks[3])
	}
	for _, li := range []int{-1, 0, 2} {
		if a.lastFwdGPU(li) != nil || a.firstBwdGPU(li) != nil {
			t.Fatalf("layer %d has anchors; want none", li)
		}
	}
}

// countingView counts Tasks() enumerations of the view it wraps.
type countingView struct {
	core.TaskView
	calls int
}

func (c *countingView) Tasks() []*core.Task {
	c.calls++
	return c.TaskView.Tasks()
}

// TestMemoryBodiesScanTasksOncePerApply pins the O(tasks) cost of the
// vDNN and Gist bodies: one Tasks() enumeration per apply, however many
// layers they splice around.
func TestMemoryBodiesScanTasksOncePerApply(t *testing.T) {
	g := anchorGraph(t, "densenet121")
	all := func(gr trace.GradientInfo) bool { return gr.ActBytes > 0 }
	bodies := []struct {
		name  string
		apply func(p *core.Patch, v core.TaskView) error
	}{
		{"vdnn", func(p *core.Patch, v core.TaskView) error {
			return vdnnInto(p, v, VDNNOptions{OffloadLayer: all, PrefetchDistance: 2})
		}},
		{"gist", func(p *core.Patch, v core.TaskView) error {
			return gistInto(p, v, GistOptions{Lossy: true})
		}},
	}
	for _, tc := range bodies {
		t.Run(tc.name, func(t *testing.T) {
			p := core.NewPatch(g)
			v := &countingView{TaskView: p}
			if err := tc.apply(p, v); err != nil {
				t.Fatal(err)
			}
			if p.NumTasks() <= g.NumTasks()+2 {
				t.Fatalf("apply inserted %d tasks; want one pair per layer", p.NumTasks()-g.NumTasks())
			}
			if v.calls != 1 {
				t.Fatalf("%s apply enumerated Tasks() %d times, want 1", tc.name, v.calls)
			}
		})
	}
}
