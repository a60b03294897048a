package whatif_test

// Timing-only equivalence suite: for every zoo model and every
// duration-only what-if optimization, the clone-free Patch evaluation of
// the Opt value must reproduce core.ApplyOptimization on a private clone
// bit for bit — same makespan, same start time for every task and the
// same critical path, task for task.
//
// The zeroing forms (FusedAdam, ReconBatchnorm) additionally stay pinned
// to the removal they model: a removal oracle over a Patch (RemoveTask,
// which reproduces Graph.Remove's reconnection edges) must give the same
// makespan and the same start for every surviving task. Their critical
// path is not compared against the oracle: the zeroed tasks stay in the
// graph, so it may legitimately route through a zero-duration task
// where the removal routes through the reconnection edges.

import (
	"fmt"
	"testing"
	"time"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
	"daydream/internal/xpu"
)

// equivCase is one timing-only Opt value, optionally with the removal
// it models.
type equivCase struct {
	name string
	opt  core.Optimization
	// removal, when set, applies the structural form the zeroing opt
	// stands for.
	removal func(*core.Patch) error
}

func equivCases() []equivCase {
	profile := whatif.KernelProfile{
		"sgemm":    1500 * time.Microsecond,
		"elemwise": 20 * time.Microsecond,
		"sgemm_fp": 900 * time.Microsecond, // longer key must win over "sgemm"
	}
	from, to := xpu.RTX2080Ti(), xpu.V100()
	return []equivCase{
		{name: "amp", opt: whatif.OptAMP()},
		{name: "kernelprofile", opt: whatif.OptKernelProfile(profile)},
		{name: "scalebyname", opt: whatif.OptScale("elemwise", 0.25)},
		{name: "upgrade", opt: whatif.OptDeviceUpgrade(from, to)},
		{name: "fusedadam", opt: whatif.OptFusedAdam(), removal: fusedAdamRemoval},
		{
			name:    "batchnorm",
			opt:     whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{}),
			removal: whatif.OptReconBatchnormRemoval(whatif.ReconBatchnormOptions{}).Apply,
		},
	}
}

// fusedAdamRemoval is Algorithm 4 as the paper states it: every
// superseded weight-update kernel and its CPU launch are removed, and
// the earliest-traced weight-update kernel takes the summed duration.
func fusedAdamRemoval(p *core.Patch) error {
	wu := p.Base().LayerPhaseIndex().WeightUpdateGPUTasks()
	if len(wu) == 0 {
		return fmt.Errorf("no weight-update GPU tasks")
	}
	first := wu[0]
	var sum time.Duration
	for _, u := range wu {
		sum += p.Duration(u)
		if u.TracedStart < first.TracedStart {
			first = u
		}
	}
	for _, u := range wu {
		if u == first {
			continue
		}
		if peer := u.Peer(); peer != nil && peer.OnCPU() {
			p.RemoveTask(peer)
		}
		p.RemoveTask(u)
	}
	p.SetDuration(first, sum)
	return nil
}

func TestOverlayEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range equivCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					assertOverlayEquivalence(t, g, tc)
				})
			}
		})
	}
}

func assertOverlayEquivalence(t *testing.T, g *core.Graph, tc equivCase) {
	t.Helper()
	p := core.NewPatch(g)
	patchErr := tc.opt.Apply(p)
	c, cloneErr := core.ApplyOptimization(g.Clone(), tc.opt)
	if (cloneErr == nil) != (patchErr == nil) {
		t.Fatalf("error mismatch: clone=%v patch=%v", cloneErr, patchErr)
	}
	if cloneErr != nil {
		return // both paths reject the workload the same way
	}
	if p.Structural() {
		t.Fatal("timing-only opt recorded structural deltas")
	}

	want, err := c.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("makespan: patch %v, clone %v", got.Makespan, want.Makespan)
	}
	for id := 0; id < c.IDSpan(); id++ {
		if got.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: patch %v, clone %v", id, got.Start[id], want.Start[id])
		}
	}
	gotPath := core.CriticalPath(g, got)
	wantPath := core.CriticalPath(c, want)
	if len(gotPath) != len(wantPath) {
		t.Fatalf("critical path length: patch %d, clone %d", len(gotPath), len(wantPath))
	}
	for i := range gotPath {
		if gotPath[i].ID != wantPath[i].ID {
			t.Fatalf("critical path[%d]: patch #%d, clone #%d", i, gotPath[i].ID, wantPath[i].ID)
		}
	}

	if tc.removal == nil {
		return
	}
	rp := core.NewPatch(g)
	if err := tc.removal(rp); err != nil {
		t.Fatalf("removal oracle failed where the zeroing form applied: %v", err)
	}
	removed, err := rp.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != removed.Makespan {
		t.Fatalf("makespan: zeroing %v, removal %v", got.Makespan, removed.Makespan)
	}
	for _, u := range rp.Tasks() {
		if got.Start[u.ID] != removed.Start[u.ID] {
			t.Fatalf("surviving task %d start: zeroing %v, removal %v", u.ID, got.Start[u.ID], removed.Start[u.ID])
		}
	}
}
