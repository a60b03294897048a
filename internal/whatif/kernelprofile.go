package whatif

import (
	"sort"
	"time"

	"daydream/internal/core"
)

// KernelProfile carries externally measured kernel durations, keyed by a
// substring of the kernel name. This implements the paper's §7.4
// workflow: "Developers can profile their individual kernels, and then
// input the profiling results into Daydream to accurately estimate the
// overall runtime" — saving the engineering effort of porting a new
// kernel implementation into the framework before knowing whether it
// pays off.
type KernelProfile map[string]time.Duration

// sortedKeys returns the profile keys longest first, so the most
// specific pattern wins.
func (p KernelProfile) sortedKeys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return len(keys[i]) > len(keys[j]) })
	return keys
}

// applyKernelProfileOverlay overwrites the duration of every GPU task
// whose name contains a profile key, recording the profiled durations
// as overlay deltas — typically a handful of sparse edits — over the
// shared baseline. When several keys match one task, the longest key
// wins (most specific). It returns how many tasks were updated.
func applyKernelProfileOverlay(o *core.Overlay, profile KernelProfile) int {
	if len(profile) == 0 {
		return 0
	}
	keys := profile.sortedKeys()
	updated := 0
	for _, u := range o.Base().LayerPhaseIndex().GPUTasks() {
		for _, k := range keys {
			if core.NameContains(k)(u) {
				o.SetDuration(u, profile[k])
				updated++
				break
			}
		}
	}
	return updated
}

// scaleByNameOverlay multiplies the durations of GPU tasks whose name
// contains the substring — the generic COZ-style "what if task T were
// N× faster" question the paper's related work poses — and returns how
// many tasks it scaled.
func scaleByNameOverlay(o *core.Overlay, sub string, factor float64) int {
	tasks := o.Base().LayerPhaseIndex().GPUTasksMatching(sub)
	for _, u := range tasks {
		o.ScaleDuration(u, factor)
	}
	return len(tasks)
}
