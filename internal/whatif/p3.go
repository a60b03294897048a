package whatif

import (
	"fmt"
	"time"

	"daydream/internal/comm"
	"daydream/internal/core"
	"daydream/internal/trace"
)

// P3Options configures the priority-based parameter propagation what-if.
type P3Options struct {
	// Topology is the parameter-server cluster.
	Topology comm.Topology
	// SliceBytes is the gradient slice size; zero disables slicing and
	// priorities, which models the plain (FIFO) MXNet parameter server —
	// the "Baseline" of Figure 10.
	SliceBytes int64
	// Rounds is how many consecutive iterations to chain for the
	// steady-state measurement; the default (and minimum) is 2.
	Rounds int
}

// P3Result carries the transformed multi-iteration graph and how to read
// an iteration time out of it.
type P3Result struct {
	// Graph is the repeated, transformed graph to simulate.
	Graph *core.Graph
	// Rounds is the number of chained iterations.
	Rounds int
}

// IterationTime extracts the steady-state iteration time from a
// simulation of the transformed graph: the distance between the last two
// rounds' completion frontiers.
func (r *P3Result) IterationTime(res *core.SimResult) time.Duration {
	last := core.RoundSpan(r.Graph, res, r.Rounds-1)
	prev := core.RoundSpan(r.Graph, res, r.Rounds-2)
	return last - prev
}

// P3 models MXNet parameter-server training — optionally with
// priority-based parameter propagation (Jayarajan et al.) — from a
// single-worker profile, per the paper's §5.1 and Algorithm 7. The
// baseline iteration graph is replicated so that a layer's push/pull
// (issued during backward) gates the *next* iteration's forward pass of
// the same layer:
//
//	bwd(layer, round r) → push slices → pull slices → fwd(layer, round r+1)
//
// With SliceBytes > 0, gradients are cut into slices whose priority favors
// layers needed earliest in the next forward pass; the simulator's
// scheduler resolves channel contention by priority, modeling P3's
// preemptive transfers. Push tasks ride the "ps.send" channel and pull
// tasks "ps.recv" (Algorithm 7's comm.send / comm.receive).
//
// P3 repeats the graph itself (a rewrite); P3Annotate is the clone-free
// form for grids that share one pre-repeated baseline across scenarios.
func P3(g *core.Graph, opts P3Options) (*P3Result, error) {
	if opts.Topology.TotalGPUs() <= 1 {
		return nil, fmt.Errorf("whatif: P3 requires a multi-worker topology")
	}
	if err := requireLayers(g, "P3"); err != nil {
		return nil, err
	}
	rounds := opts.Rounds
	if rounds < 2 {
		rounds = 2
	}
	rep, err := g.Repeat(rounds)
	if err != nil {
		return nil, err
	}
	if err := p3AnnotateInto(rep, rep, opts, rounds); err != nil {
		return nil, err
	}
	return &P3Result{Graph: rep, Rounds: rounds}, nil
}

// P3Annotate is Algorithm 7's annotation phase as a copy-on-write
// structural patch over an already-repeated baseline: the push/pull
// tasks, their channel sequences, priorities and cross-round dependency
// edges are recorded as deltas instead of being inserted into a private
// copy. The patch's baseline must be a Repeat-expanded graph with at
// least two rounds (P3's Rounds default); a sweep grid repeats the
// single-worker profile once and shares the result across every
// bandwidth point, so no scenario clones. Simulating the patch is
// bit-identical to P3's rewrite form on the same rounds.
func P3Annotate(p *core.Patch, opts P3Options) error {
	if opts.Topology.TotalGPUs() <= 1 {
		return fmt.Errorf("whatif: P3 requires a multi-worker topology")
	}
	rep := p.Base()
	if err := requireLayers(rep, "P3"); err != nil {
		return err
	}
	rounds := opts.Rounds
	if rounds < 2 {
		rounds = 2
	}
	if have := rep.LayerPhaseIndex().Rounds(); have != rounds {
		return fmt.Errorf("whatif: P3Annotate: baseline has %d rounds, want %d (Repeat the profile first)", have, rounds)
	}
	return p3AnnotateInto(rep, p, opts, rounds)
}

// graphEditor is the write surface shared by *core.Graph and
// *core.Patch: P3's annotation emits its surgery through it, so the
// in-place rewrite (P3) and the clone-free patch form (P3Annotate) are
// the same code — and therefore bit-equivalent by construction.
type graphEditor interface {
	NewTask(name string, kind trace.Kind, thread core.ThreadID, dur time.Duration) *core.Task
	AppendTask(t *core.Task)
	AddDependency(from, to *core.Task, kind core.DepKind) error
}

// p3AnnotateInto reads the repeated baseline rep and emits Algorithm
// 7's push/pull annotation through ed (the repeated graph itself, or a
// patch over it).
func p3AnnotateInto(rep *core.Graph, ed graphEditor, opts P3Options, rounds int) error {
	grads := gradientsByIndex(rep)
	layers := sortedLayerIndices(grads)
	bw := opts.Topology.NICBandwidth
	lat := opts.Topology.StepLatency
	send := core.Channel("ps.send")
	recv := core.Channel("ps.recv")

	// One index build answers every (layer, round) query; the push/pull
	// tasks inserted below have no layer mapping, so the held snapshot
	// stays correct throughout (and the patch path never mutates the
	// shared baseline at all).
	idx := rep.LayerPhaseIndex()
	for r := 0; r < rounds; r++ {
		for _, li := range layers {
			gr := grads[li]
			if gr.Bytes == 0 {
				continue
			}
			u := idx.LastBackwardGPU(li, r)
			if u == nil {
				continue
			}
			var v *core.Task
			if r+1 < rounds {
				v = idx.FirstForwardGPU(li, r+1)
			}
			sliceBytes := gr.Bytes
			priority := 0
			if opts.SliceBytes > 0 {
				sliceBytes = opts.SliceBytes
				// Parameters needed earliest in the next forward
				// pass win the network first.
				priority = -li
			}
			for _, sz := range comm.Slices(gr.Bytes, sliceBytes) {
				push := ed.NewTask(fmt.Sprintf("push %s", gr.Layer), trace.KindComm, send, comm.TransferTime(sz, bw, lat))
				push.Bytes = sz
				push.Priority = priority
				push.Round = r
				pull := ed.NewTask(fmt.Sprintf("pull %s", gr.Layer), trace.KindComm, recv, comm.TransferTime(sz, bw, lat))
				pull.Bytes = sz
				pull.Priority = priority
				pull.Round = r
				if err := ed.AddDependency(u, push, core.DepComm); err != nil {
					return err
				}
				if err := ed.AddDependency(push, pull, core.DepComm); err != nil {
					return err
				}
				if v != nil {
					if err := ed.AddDependency(pull, v, core.DepComm); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
