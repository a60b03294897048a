package core

import (
	"fmt"
	"time"

	"daydream/internal/trace"
)

// Predicate helpers for Select (§4.4: select by layer, by name keyword, by
// location).

// OnGPUPred matches GPU tasks (kernels and device-side copies).
func OnGPUPred(t *Task) bool { return t.OnGPU() }

// NameContains matches tasks whose name contains the substring — the
// paper's select-by-keyword (e.g. "sgemm", "elementwise").
func NameContains(sub string) func(*Task) bool {
	return func(t *Task) bool { return contains(t.Name, sub) }
}

// ComputeIntensivePred matches tasks the paper's Algorithm 3 treats as
// compute-intensive by name convention ("sgemm"/"scudnn" kernels — the
// ones tensor cores accelerate ~3×). AMP and DeviceUpgrade share it,
// and LayerPhaseIndex caches it per GPU task so overlay scenarios skip
// the substring scans entirely.
func ComputeIntensivePred(t *Task) bool {
	return contains(t.Name, "sgemm") || contains(t.Name, "scudnn")
}

// InPhase matches tasks mapped to the given training phase.
func InPhase(p trace.Phase) func(*Task) bool {
	return func(t *Task) bool { return t.HasLayer && t.Phase == p }
}

// InLayer matches tasks mapped to the named layer.
func InLayer(name string) func(*Task) bool {
	return func(t *Task) bool { return t.HasLayer && t.Layer == name }
}

// KindIs matches tasks of the given activity kind.
func KindIs(k trace.Kind) func(*Task) bool {
	return func(t *Task) bool { return t.Kind == k }
}

// And composes predicates conjunctively.
func And(ps ...func(*Task) bool) func(*Task) bool {
	return func(t *Task) bool {
		for _, p := range ps {
			if !p(t) {
				return false
			}
		}
		return true
	}
}

// contains reports whether s contains sub (strings.Contains without the
// import, keeping the hot path allocation-free).
func contains(s, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// MeanDuration returns the mean duration of the given tasks (zero for an
// empty selection) — handy for estimating inserted kernels "based on
// existing element-wise kernels" as the paper does for Gist and DGC.
func MeanDuration(tasks []*Task) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	var sum time.Duration
	for _, t := range tasks {
		sum += t.Duration
	}
	return sum / time.Duration(len(tasks))
}

// Repeat returns a new graph containing n back-to-back copies of g: every
// thread's sequence is replicated and chained, modeling consecutive
// training iterations in steady state. Tasks carry their copy index in
// Round. Cross-iteration what-ifs (P3's pull-before-next-forward, vDNN
// prefetching) transform the repeated graph.
func (g *Graph) Repeat(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Repeat: n must be ≥1, got %d", n)
	}
	out := NewGraph()
	out.Meta = g.Meta
	// idMap[r][oldID] = new task for round r.
	idMap := make([][]*Task, n)
	for r := 0; r < n; r++ {
		idMap[r] = make([]*Task, len(g.tasks))
		for id, t := range g.tasks {
			if t == nil {
				continue
			}
			nt := out.NewTask(t.Name, t.Kind, t.Thread, t.Duration)
			nt.Gap = t.Gap
			nt.TracedStart = t.TracedStart
			nt.TracedDuration = t.TracedDuration
			nt.Layer, nt.LayerIndex, nt.Phase, nt.HasLayer = t.Layer, t.LayerIndex, t.Phase, t.HasLayer
			nt.Correlation = t.Correlation
			nt.Bytes = t.Bytes
			nt.Dir = t.Dir
			nt.Priority = t.Priority
			nt.Round = r
			idMap[r][id] = nt
		}
		// Thread sequences, chained to the previous round.
		for tid := range g.threads {
			var prev *Task
			if r > 0 {
				prev = out.seq(tid).tail
			}
			for t := g.threads[tid].head; t != nil; t = t.seqNext {
				nt := idMap[r][t.ID]
				if prev != nil {
					nt.seqPrev = prev
					prev.seqNext = nt
					out.addEdge(prev, nt, DepSequence)
				} else {
					out.seq(tid).head = nt
				}
				out.seq(tid).tail = nt
				prev = nt
			}
		}
		// Non-sequence edges within the round, and correlation peers.
		for id, t := range g.tasks {
			if t == nil {
				continue
			}
			for i, c := range t.children {
				if kind := t.childKinds[i]; kind != DepSequence {
					out.addEdge(idMap[r][id], idMap[r][c.ID], kind)
				}
			}
			if t.peer != nil {
				if np := idMap[r][t.peer.ID]; np != nil {
					idMap[r][id].peer = np
				}
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// RoundSpan returns, for a simulated repeated graph (or a Patch viewing
// one), the completion time of the last task of the given round. The
// steady-state iteration time of an n-round graph is RoundSpan(r) −
// RoundSpan(r−1).
func RoundSpan(v TaskView, res *SimResult, round int) time.Duration {
	// On a windowed result, retired rounds answer from their summary;
	// retained rounds fall through to the per-task scan below.
	if w := res.win; w != nil && round >= 0 && round < w.retired {
		return w.summaries[round].End
	}
	var end time.Duration
	for _, t := range v.Tasks() {
		if t.Round != round {
			continue
		}
		if f := res.Finish(t); f > end {
			end = f
		}
	}
	return end
}
