package whatif

import (
	"fmt"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/xpu"
)

// First-class Optimization values for every optimization model in this
// package. Each constructor wraps the model's one body — an overlay
// edit for timing-only models, a patch edit for structural ones — into
// a self-describing core.Optimization, so the same value drives
// Compare, sweep scenarios, the experiment grids and the CLIs, and
// core.Stack composes them into single composed what-ifs. Callers that
// need a real *Graph apply a value to a private clone with
// core.ApplyOptimization.

// OptAMP returns automatic mixed precision (Algorithm 3) as an
// Optimization value. Timing-only: evaluation rides the clone-free
// overlay path.
func OptAMP() core.Optimization {
	return core.TimingOpt("amp",
		func(o *core.Overlay) error { ampOverlay(o); return nil }, nil)
}

// OptFusedAdam returns Apex's fused Adam optimizer (Algorithm 4) as an
// Optimization value. Timing-only: the overlay form zeroes superseded
// kernels instead of removing them, which simulates identically.
func OptFusedAdam() core.Optimization {
	return core.TimingOpt("fusedadam", fusedAdamOverlay, nil)
}

// OptReconBatchnorm returns batchnorm restructuring (Algorithm 5) as an
// Optimization value. Timing-only: the zeroing form simulates
// identically to the removal form; OptReconBatchnormRemoval carries the
// true removal as structural patch deltas for consumers that need the
// restructured graph shape (e.g. critical paths that must route around
// the removed kernels).
func OptReconBatchnorm(opts ReconBatchnormOptions) core.Optimization {
	return core.TimingOpt("reconbn",
		func(o *core.Overlay) error { return reconBatchnormOverlay(o, opts) }, nil)
}

// OptReconBatchnormRemoval returns Algorithm 5's removal form as a
// patch-form structural Optimization value: ReLU kernels are removed
// (with Remove's reconnection edges) as copy-on-write deltas instead of
// zeroed, still without cloning the baseline.
func OptReconBatchnormRemoval(opts ReconBatchnormOptions) core.Optimization {
	return core.PatchOpt("reconbn-removal", core.Structural,
		func(p *core.Patch) error { return ReconBatchnormPatch(p, opts) }, nil)
}

// OptDistributed returns the data-parallel prediction (Algorithm 6) as
// an Optimization value. Structural, but patch-form: the all-reduce
// insertions are recorded as copy-on-write deltas, so sweep grids over
// one shared profile stay clone-free.
func OptDistributed(opts DistributedOptions) core.Optimization {
	t := opts.Topology
	name := fmt.Sprintf("distributed %s @%.0fGbps", t.String(), t.NICBandwidth/comm.Gbps(1))
	return core.PatchOpt(name, core.Structural,
		func(p *core.Patch) error { return DistributedPatch(p, opts) }, nil)
}

// p3Name renders the shared name shape of the parameter-server values.
func p3Name(opts P3Options) string {
	t := opts.Topology
	label := "p3"
	if opts.SliceBytes <= 0 {
		label = "ps-fifo"
	}
	return fmt.Sprintf("%s %s @%.0fGbps", label, t.String(), t.NICBandwidth/comm.Gbps(1))
}

// p3SteadyState measures the steady-state iteration time — the distance
// between the last two rounds' completion frontiers — from whatever
// task view the simulation ran over (the rewritten graph, or the
// annotation patch over a shared repeated baseline). Equivalent to
// RoundSpan(last) − RoundSpan(last−1), computed in one pass.
func p3SteadyState(v core.TaskView, res *core.SimResult) (time.Duration, error) {
	var spans []time.Duration
	for _, t := range v.Tasks() {
		for t.Round >= len(spans) {
			spans = append(spans, 0)
		}
		if f := res.Finish(t); f > spans[t.Round] {
			spans[t.Round] = f
		}
	}
	if len(spans) < 2 {
		return 0, fmt.Errorf("whatif: p3 steady-state measure needs ≥2 rounds, have %d", len(spans))
	}
	return spans[len(spans)-1] - spans[len(spans)-2], nil
}

// OptP3 returns the parameter-server prediction (Algorithm 7) as an
// Optimization value: a graph rewriter (the iteration is repeated
// before annotation) carrying its own metric — the steady-state round
// distance rather than the multi-round makespan. SliceBytes follows
// P3Options: positive enables P3's slicing and priorities, zero models
// the plain FIFO parameter server. For clone-free grids over a shared
// pre-repeated baseline, use OptP3Annotate.
func OptP3(opts P3Options) core.Optimization {
	rounds := opts.Rounds
	if rounds < 2 {
		rounds = 2
	}
	opts.Rounds = rounds
	return core.RewriteOpt(p3Name(opts),
		func(g *core.Graph) (*core.Graph, error) {
			r, err := P3(g, opts)
			if err != nil {
				return nil, err
			}
			return r.Graph, nil
		},
		p3SteadyState)
}

// OptP3Annotate returns Algorithm 7's annotation phase as a patch-form
// Optimization value: the baseline must already be the Repeat-expanded
// multi-round graph (Rounds rounds, default 2), and the push/pull
// annotation is recorded as copy-on-write deltas over it — the
// clone-free path for bandwidth grids that share one repeated profile
// across every scenario (Figure 10). Carries the same steady-state
// metric as OptP3 and predicts identically.
func OptP3Annotate(opts P3Options) core.Optimization {
	return core.PatchOpt(p3Name(opts), core.Structural,
		func(p *core.Patch) error { return P3Annotate(p, opts) },
		p3SteadyState)
}

// OptDeviceUpgrade returns the device-upgrade what-if as an Optimization
// value. Timing-only: device grids over one shared profile stay
// clone-free.
func OptDeviceUpgrade(from, to *xpu.Device) core.Optimization {
	name := "upgrade"
	if to != nil {
		name = fmt.Sprintf("upgrade to %s", to.Name)
	}
	return core.TimingOpt(name,
		func(o *core.Overlay) error { return deviceUpgradeOverlay(o, from, to) }, nil)
}

// OptKernelProfile returns the externally-profiled-kernel what-if
// (paper §7.4) as an Optimization value.
func OptKernelProfile(p KernelProfile) core.Optimization {
	return core.TimingOpt("kprofile",
		func(o *core.Overlay) error { applyKernelProfileOverlay(o, p); return nil }, nil)
}

// OptScale returns the COZ-style "what if kernels matching sub were
// factor× their duration" question as an Optimization value.
func OptScale(sub string, factor float64) core.Optimization {
	name := fmt.Sprintf("scale %q x%g", sub, factor)
	return core.TimingOpt(name,
		func(o *core.Overlay) error { scaleByNameOverlay(o, sub, factor); return nil }, nil)
}
