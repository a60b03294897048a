package whatif

import (
	"strings"

	"daydream/internal/core"
)

// ReconBatchnormOptions configures OptReconBatchnorm and
// OptReconBatchnormRemoval.
type ReconBatchnormOptions struct {
	// IsReLU and IsBatchNorm classify layers by name. Defaults match
	// the model zoo's naming ("relu", "bn"/"batchnorm" substrings).
	IsReLU      func(layer string) bool
	IsBatchNorm func(layer string) bool
}

func (o *ReconBatchnormOptions) defaults(g *core.Graph) {
	kinds := make(map[string]string)
	for _, gr := range g.Meta.Gradients {
		kinds[gr.Layer] = gr.Kind
	}
	if o.IsReLU == nil {
		o.IsReLU = func(layer string) bool {
			if k, ok := kinds[layer]; ok && k != "" {
				return k == "relu"
			}
			return strings.Contains(layer, "relu")
		}
	}
	if o.IsBatchNorm == nil {
		o.IsBatchNorm = func(layer string) bool {
			if k, ok := kinds[layer]; ok && k != "" {
				return k == "batchnorm"
			}
			return strings.Contains(layer, "bn") || strings.Contains(layer, "batchnorm")
		}
	}
}

// reconBatchnormInto is the one body behind both forms of Algorithm 5
// (the paper's §5.1, batchnorm restructuring after Jung et al.):
// activation (ReLU) GPU kernels disappear — they are memory-bound
// kernels now fused with the neighbouring compute-intensive
// convolutions — and batch-normalization GPU kernels shrink 2× because
// the split sub-layers halve the input data they load from GPU memory.
// It classifies the baseline's GPU kernels and emits the edits through
// the supplied sinks, so the removal and zeroing forms cannot drift
// apart. As §6.4 discusses, this idealized model does not know the
// re-implementation's new memory copies and allocations, so it
// overestimates the real gain.
func reconBatchnormInto(g *core.Graph, opts ReconBatchnormOptions, remove, halve func(*core.Task)) error {
	if err := requireLayers(g, "ReconBatchnorm"); err != nil {
		return err
	}
	opts.defaults(g)
	for _, u := range g.LayerPhaseIndex().GPUTasks() {
		if !u.HasLayer {
			continue
		}
		switch {
		case opts.IsReLU(u.Layer):
			remove(u)
		case opts.IsBatchNorm(u.Layer):
			halve(u)
		}
	}
	return nil
}

// ReconBatchnormPatch is Algorithm 5's removal form as a copy-on-write
// structural patch: activation (ReLU) GPU kernels are removed through
// the patch's Remove delta — reproducing Graph.Remove's reconnection
// edges over the shared baseline — and batch-normalization kernels
// halve through the timing tier.
func ReconBatchnormPatch(p *core.Patch, opts ReconBatchnormOptions) error {
	return reconBatchnormInto(p.Base(), opts,
		p.RemoveTask,
		func(u *core.Task) { p.SetDuration(u, p.Duration(u)/2) })
}

// reconBatchnormOverlay is the duration-only form of Algorithm 5:
// batchnorm kernels halve and activation kernels drop to zero duration
// and gap through the overlay instead of being removed. The simulated
// makespan and every surviving task's start match the removal form
// exactly (a zero-time task forwards the same ordering constraints
// Remove's reconnection edges preserve); only the critical path may
// route through the zeroed kernels instead of around them.
func reconBatchnormOverlay(o *core.Overlay, opts ReconBatchnormOptions) error {
	return reconBatchnormInto(o.Base(), opts,
		func(u *core.Task) {
			o.SetDuration(u, 0)
			o.SetGap(u, 0)
		},
		func(u *core.Task) { o.SetDuration(u, o.Duration(u)/2) })
}
