package whatif

import (
	"fmt"
	"time"

	"daydream/internal/core"
)

// fusedAdamOverlay models Apex's fused Adam optimizer per the paper's
// §5.1 and Algorithm 4: all weight-update-phase tasks disappear —
// eliminating the thousands of CUDA launches that bottleneck the CPU —
// and one fused GPU kernel takes their place, its duration estimated as
// the sum of the superseded kernels' durations. The estimate is
// deliberately the paper's (it cannot know the fused implementation's
// true memory traffic), which is one of the places prediction error
// comes from.
//
// The earliest weight-update kernel in the traced schedule becomes the
// fused kernel. Instead of removing the other kernels and their launch
// calls, the overlay zeroes their durations and gaps, which yields the
// same simulated makespan and the same start time for every surviving
// task as Algorithm 4's removal. The equivalence holds because every
// zeroed task is sequence-chained on its thread (they are traced
// kernels/launches): its thread-progress term equals its sequence
// parent's end, so everything a zero-time task forwards — dependency-
// parent ends and thread progress alike — is an ordering constraint
// Remove's reconnection edges preserve. (The zeroed tasks still exist,
// so a critical path may legitimately route through them where the
// removal form routes through the reconnection edges.)
func fusedAdamOverlay(o *core.Overlay) error {
	g := o.Base()
	if err := requireLayers(g, "FusedAdam"); err != nil {
		return err
	}
	wuGPU := g.LayerPhaseIndex().WeightUpdateGPUTasks()
	if len(wuGPU) == 0 {
		return fmt.Errorf("whatif: FusedAdam: no weight-update GPU tasks found")
	}
	first := wuGPU[0]
	var sum time.Duration
	for _, u := range wuGPU {
		sum += o.Duration(u)
		if u.TracedStart < first.TracedStart {
			first = u
		}
	}
	o.SetDuration(first, sum)
	for _, u := range wuGPU {
		if u == first {
			continue
		}
		if peer := u.Peer(); peer != nil && peer.OnCPU() {
			o.SetDuration(peer, 0)
			o.SetGap(peer, 0)
		}
		o.SetDuration(u, 0)
		o.SetGap(u, 0)
	}
	return nil
}
