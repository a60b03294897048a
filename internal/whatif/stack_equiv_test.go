package whatif_test

// Stack equivalence suite: for every zoo model, a composed what-if such
// as Stack(OptAMP(), OptFusedAdam()) must be bit-identical to applying
// its parts one after the other with core.ApplyOptimization on a clone —
// on both of the stack's evaluation paths, ApplyOptimization on a clone
// and Apply on a shared-baseline Patch. Same makespan and same start
// time for every task.

import (
	"testing"

	"daydream/internal/core"
	"daydream/internal/dnn"
	"daydream/internal/framework"
	"daydream/internal/whatif"
)

// stackCases lists composed what-ifs checked zoo-wide against their
// parts' sequential clone-path application.
func stackCases() []struct {
	name  string
	parts []core.Optimization
} {
	profile := whatif.KernelProfile{"sgemm": 0}
	return []struct {
		name  string
		parts []core.Optimization
	}{
		{
			name:  "amp+fusedadam",
			parts: []core.Optimization{whatif.OptAMP(), whatif.OptFusedAdam()},
		},
		{
			name:  "amp+kprofile+reconbn",
			parts: []core.Optimization{whatif.OptAMP(), whatif.OptKernelProfile(profile), whatif.OptReconBatchnorm(whatif.ReconBatchnormOptions{})},
		},
	}
}

func TestStackEquivalenceAcrossZoo(t *testing.T) {
	for _, name := range dnn.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profile(t, name, framework.PyTorch)
			for _, tc := range stackCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					assertStackEquivalence(t, g, tc.parts)
				})
			}
		})
	}
}

func assertStackEquivalence(t *testing.T, g *core.Graph, parts []core.Optimization) {
	t.Helper()
	stack := core.Stack(parts...)
	if fp := stack.Footprint(); fp != core.TimingOnly {
		t.Fatalf("stack of timing-only optimizations has footprint %v", fp)
	}

	// Reference: the parts applied one after the other on a clone.
	seq := g.Clone()
	var seqErr error
	for _, part := range parts {
		if _, seqErr = core.ApplyOptimization(seq, part); seqErr != nil {
			break
		}
	}

	// Stack clone path.
	sc, cloneErr := core.ApplyOptimization(g.Clone(), stack)
	// Stack patch path over the shared baseline.
	p := core.NewPatch(g)
	patchErr := stack.Apply(p)

	if (seqErr == nil) != (cloneErr == nil) || (seqErr == nil) != (patchErr == nil) {
		t.Fatalf("error mismatch: sequential=%v stack-clone=%v stack-patch=%v",
			seqErr, cloneErr, patchErr)
	}
	if seqErr != nil {
		return // all three forms reject the workload the same way
	}

	want, err := seq.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	gotClone, err := sc.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	gotPatch, err := p.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if gotClone.Makespan != want.Makespan {
		t.Fatalf("makespan: stack clone path %v, sequential %v", gotClone.Makespan, want.Makespan)
	}
	if gotPatch.Makespan != want.Makespan {
		t.Fatalf("makespan: stack patch path %v, sequential %v", gotPatch.Makespan, want.Makespan)
	}
	for id := 0; id < seq.IDSpan(); id++ {
		if gotClone.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: stack clone path %v, sequential %v",
				id, gotClone.Start[id], want.Start[id])
		}
		if gotPatch.Start[id] != want.Start[id] {
			t.Fatalf("task %d start: stack patch path %v, sequential %v",
				id, gotPatch.Start[id], want.Start[id])
		}
	}
}
