package whatif

import (
	"fmt"

	"daydream/internal/core"
	"daydream/internal/trace"
	"daydream/internal/xpu"
)

// deviceUpgradeOverlay answers "would a faster GPU help?" (one of the
// paper's introductory what-if questions) from an existing profile:
// compute-bound kernels — identified by the same name convention
// Algorithm 3 uses — scale by the devices' arithmetic-throughput ratio,
// every other GPU task by the memory-bandwidth ratio, and host↔device
// copies by the PCIe ratio, each clamped to the target's kernel floor.
// CPU tasks are untouched, so the prediction exposes where an upgrade
// would merely shift the bottleneck to the host — the same insight as
// the paper's AMP analysis (§6.2). The rescaled durations are
// copy-on-write deltas over the shared baseline, with the task list and
// compute classification served by the memoized layer/phase index, so
// device grids (many targets from one profile) neither clone nor
// string-match anything.
func deviceUpgradeOverlay(o *core.Overlay, from, to *xpu.Device) error {
	if from == nil || to == nil {
		return fmt.Errorf("whatif: DeviceUpgrade: both devices are required")
	}
	if from.FP32FLOPS <= 0 || from.MemBandwidth <= 0 || from.PCIeBandwidth <= 0 {
		return fmt.Errorf("whatif: DeviceUpgrade: source device %q has incomplete specs", from.Name)
	}
	compute := from.FP32FLOPS / to.FP32FLOPS
	mem := from.MemBandwidth / to.MemBandwidth
	pcie := from.PCIeBandwidth / to.PCIeBandwidth
	ix := o.Base().LayerPhaseIndex()
	isCompute := ix.GPUComputeBound()
	for i, u := range ix.GPUTasks() {
		d := o.Duration(u)
		switch {
		case u.Kind == trace.KindMemcpy:
			d = scaleDuration(d, pcie)
		case isCompute[i]:
			d = scaleDuration(d, compute)
		default:
			d = scaleDuration(d, mem)
		}
		if d < to.KernelFloor {
			d = to.KernelFloor
		}
		o.SetDuration(u, d)
	}
	return nil
}
