package core

import (
	"fmt"
	"time"
)

// Overlay views a shared immutable baseline Graph through per-task
// duration/gap/priority deltas — a copy-on-write layer for what-if
// scenarios that never touch graph structure (AMP, fused optimizers
// modeled as rescaling, kernel profiles, device upgrades, bandwidth and
// duration grids). Instead of paying a full Clone per scenario, such a
// scenario records only its timing edits and simulates through them:
// the baseline's tasks, adjacency and thread sequences are read in
// place, so any number of overlays can share one baseline concurrently
// as long as nothing mutates it.
//
// Edits are stored sparsely (a map keyed by task ID) while few, and
// densely (flat per-ID slices) past a crossover, so both a two-kernel
// profile tweak and an all-GPU-task rescale stay cheap. The overlay
// also snapshots the baseline's timing arrays once per binding, and
// simulates over the baseline's memoized flat view (CSR adjacency and
// thread layout, shared by every overlay on that baseline), so
// densification and simulation are memcpy-and-index work rather than
// pointer chasing. An Overlay is not safe for concurrent use itself;
// the sharing model is one overlay per goroutine over one shared
// baseline. Reset rebinds an overlay to a (possibly
// different) baseline while keeping its storage, which is how the sweep
// worker pool makes scenario evaluation allocation-free.
type Overlay struct {
	base *Graph

	// Sparse storage below the crossover.
	sparse map[int]overlayEdit
	// Dense storage past the crossover: full effective-value arrays,
	// materialized from the baseline snapshot and overwritten in
	// place. Dense mode is sticky across Reset (re-materializing is a
	// memcpy), so a worker evaluating bulk-edit scenarios pays the
	// sparse map only once.
	dense bool
	dur   []time.Duration
	gap   []time.Duration
	prio  []int

	// prioEdited records whether any priority was overlaid; when false
	// the simulation reads Task.Priority directly.
	prioEdited bool

	// gen counts timing edits (and rebinds); consumers that memoize
	// state derived from the overlay's effective values — a Patch's
	// materialization cache — compare generations to invalidate.
	gen uint64

	// Immutable per-binding snapshot of the baseline's flat timing
	// arrays, built once when first needed and reused by every
	// subsequent densify/simulate. Timings are snapshotted per binding
	// rather than memoized on the graph because Task.Duration/Gap/
	// Priority are exported and may be written in place.
	snapBase *Graph
	baseDur  []time.Duration
	baseGap  []time.Duration
	basePrio []int
}

// editDur/editGap/editPrio mark which fields of an overlayEdit are set.
const (
	editDur = 1 << iota
	editGap
	editPrio
)

// overlayEdit is one sparse per-task override record.
type overlayEdit struct {
	dur  time.Duration
	gap  time.Duration
	prio int
	set  uint8
}

// NewOverlay returns an empty overlay over the baseline graph.
func NewOverlay(g *Graph) *Overlay {
	o := &Overlay{}
	o.Reset(g)
	return o
}

// Base returns the baseline graph the overlay views.
func (o *Overlay) Base() *Graph { return o.base }

// Reset drops every edit and rebinds the overlay to the given baseline
// (which may be the current one), retaining the allocated storage and —
// when the baseline is unchanged — the baseline snapshot.
func (o *Overlay) Reset(g *Graph) {
	if g != o.base || g != o.snapBase {
		// New (or never snapshotted) baseline: drop everything derived.
		o.snapBase = nil
		o.dense = false
	} else if o.dense {
		// Same baseline: stay dense, re-materialize by memcpy.
		copy(o.dur, o.baseDur)
		copy(o.gap, o.baseGap)
		copy(o.prio, o.basePrio)
	}
	o.base = g
	o.prioEdited = false
	o.gen++
	for id := range o.sparse {
		delete(o.sparse, id)
	}
}

// generation returns the edit counter (see gen).
func (o *Overlay) generation() uint64 { return o.gen }

// snapshot builds (once per binding) the flat baseline timing arrays.
// The baseline must not be mutated while the overlay is bound to it.
func (o *Overlay) snapshot() {
	if o.snapBase == o.base {
		return
	}
	g := o.base
	n := len(g.tasks)
	o.baseDur = growDurations(o.baseDur, n)
	o.baseGap = growDurations(o.baseGap, n)
	o.basePrio = growInts(o.basePrio, n)
	for id, t := range g.tasks {
		if t != nil {
			o.baseDur[id], o.baseGap[id], o.basePrio[id] = t.Duration, t.Gap, t.Priority
		}
	}
	o.snapBase = g
}

// crossover is the sparse-edit count past which the overlay densifies:
// beyond it, per-read map lookups cost more than materializing flat
// arrays once.
func (o *Overlay) crossover() int {
	n := len(o.base.tasks) / 8
	if n < 64 {
		n = 64
	}
	return n
}

// DenseEdits reports whether the overlay has accumulated enough
// distinct edits to switch to dense per-ID storage (more than
// max(64, tasks/8) edited tasks). A dense delta's affected cone is
// close to the whole schedule, so callers batching what-ifs — the
// sweep's worker pool — use this as the cheap "will incremental
// re-simulation pay off?" signal before building warm state;
// IncrementalSim.ReSimulate applies its own exact per-call cutoff
// regardless.
//
// Known routing fault: dense mode is sticky across Reset on the same
// baseline, so DenseEdits keeps reporting true for every later delta
// on that baseline, however sparse. A sweep worker that has answered
// one bulk-edit question (AMP) therefore routes every later question
// on that baseline past the incremental tier; on perfbench
// explore-timing, sweep.tier.incremental reads 0. Making Reset drop
// dense mode is not enough on its own: measured, it raised
// explore-timing's peak heap from 13.7 to 15.9 MiB (+16%), because
// every worker then builds a warm IncrementalSim. The fix needs a
// slimmer warm state first.
func (o *Overlay) DenseEdits() bool { return o.dense }

// EstimateConeSize estimates, before any warm schedule exists, the
// affected cone of the overlay's timing delta: an upper bound on how
// many tasks an incremental re-simulation could recompute, along with
// the baseline's task span. The bound takes everything at or after the
// earliest edited ID — trace-built graphs assign IDs in record order,
// so schedule order tracks ID order closely. Batching callers (the
// sweep's tier chooser) route near-total cones straight to overlay
// replay: a handful of edits at the very front of the iteration
// invalidates almost the whole warm schedule, so arming and building
// incremental state would cost a cold simulation only to fall back
// anyway. A dense overlay reports a total cone.
func (o *Overlay) EstimateConeSize() (cone, total int) {
	total = len(o.base.tasks)
	if o.dense {
		return total, total
	}
	if len(o.sparse) == 0 {
		return 0, total
	}
	min := total
	for id := range o.sparse {
		if id < min {
			min = id
		}
	}
	return total - min, total
}

// densify materializes the dense per-ID arrays from the baseline
// snapshot plus the sparse edits, then retires the map.
func (o *Overlay) densify() {
	o.snapshot()
	n := len(o.base.tasks)
	o.dur = growDurations(o.dur, n)
	o.gap = growDurations(o.gap, n)
	o.prio = growInts(o.prio, n)
	copy(o.dur, o.baseDur)
	copy(o.gap, o.baseGap)
	copy(o.prio, o.basePrio)
	for id, e := range o.sparse {
		if e.set&editDur != 0 {
			o.dur[id] = e.dur
		}
		if e.set&editGap != 0 {
			o.gap[id] = e.gap
		}
		if e.set&editPrio != 0 {
			o.prio[id] = e.prio
		}
		delete(o.sparse, id)
	}
	o.dense = true
}

// Duration returns the task's effective duration under the overlay.
func (o *Overlay) Duration(t *Task) time.Duration {
	if o.dense {
		return o.dur[t.ID]
	}
	if e, ok := o.sparse[t.ID]; ok && e.set&editDur != 0 {
		return e.dur
	}
	return t.Duration
}

// Gap returns the task's effective gap under the overlay.
func (o *Overlay) Gap(t *Task) time.Duration {
	if o.dense {
		return o.gap[t.ID]
	}
	if e, ok := o.sparse[t.ID]; ok && e.set&editGap != 0 {
		return e.gap
	}
	return t.Gap
}

// Priority returns the task's effective priority under the overlay.
func (o *Overlay) Priority(t *Task) int {
	if o.dense {
		return o.prio[t.ID]
	}
	if e, ok := o.sparse[t.ID]; ok && e.set&editPrio != 0 {
		return e.prio
	}
	return t.Priority
}

// SetDuration overrides the task's duration without touching the
// baseline.
func (o *Overlay) SetDuration(t *Task, d time.Duration) {
	o.gen++
	if o.dense {
		o.dur[t.ID] = d
		return
	}
	if o.sparse == nil {
		o.sparse = make(map[int]overlayEdit)
	}
	e := o.sparse[t.ID]
	e.dur, e.set = d, e.set|editDur
	o.sparse[t.ID] = e
	if len(o.sparse) > o.crossover() {
		o.densify()
	}
}

// SetGap overrides the task's gap without touching the baseline.
func (o *Overlay) SetGap(t *Task, d time.Duration) {
	o.gen++
	if o.dense {
		o.gap[t.ID] = d
		return
	}
	if o.sparse == nil {
		o.sparse = make(map[int]overlayEdit)
	}
	e := o.sparse[t.ID]
	e.gap, e.set = d, e.set|editGap
	o.sparse[t.ID] = e
	if len(o.sparse) > o.crossover() {
		o.densify()
	}
}

// SetPriority overrides the task's scheduling priority without touching
// the baseline. Priority overlays drive the default earliest-start
// scheduler's tie-breaking exactly as mutated priorities would, and a
// custom Scheduler sees them through SchedContext.Priority.
func (o *Overlay) SetPriority(t *Task, p int) {
	o.prioEdited = true
	o.gen++
	if o.dense {
		o.prio[t.ID] = p
		return
	}
	if o.sparse == nil {
		o.sparse = make(map[int]overlayEdit)
	}
	e := o.sparse[t.ID]
	e.prio, e.set = p, e.set|editPrio
	o.sparse[t.ID] = e
	if len(o.sparse) > o.crossover() {
		o.densify()
	}
}

// ScaleDuration multiplies the task's effective duration by factor,
// with the same arithmetic as the Scale primitive.
func (o *Overlay) ScaleDuration(t *Task, factor float64) {
	o.SetDuration(t, time.Duration(float64(o.Duration(t))*factor))
}

// fillTiming writes the effective per-ID durations and gaps into dur
// and gap (each sized to the baseline's ID span). The caller has run
// snapshot().
func (o *Overlay) fillTiming(dur, gap []time.Duration) {
	if o.dense {
		copy(dur, o.dur)
		copy(gap, o.gap)
		return
	}
	copy(dur, o.baseDur)
	copy(gap, o.baseGap)
	for id, e := range o.sparse {
		if e.set&editDur != 0 {
			dur[id] = e.dur
		}
		if e.set&editGap != 0 {
			gap[id] = e.gap
		}
	}
}

// effPriority returns the effective per-ID priorities: the baseline
// snapshot itself when no priority was overlaid, else buf (sized to
// the baseline's ID span) filled with them. The caller has run
// snapshot() and must not write the result.
func (o *Overlay) effPriority(buf []int) []int {
	if !o.prioEdited {
		return o.basePrio
	}
	prio := buf
	if o.dense {
		copy(prio, o.prio)
		return prio
	}
	copy(prio, o.basePrio)
	for id, e := range o.sparse {
		if e.set&editPrio != 0 {
			prio[id] = e.prio
		}
	}
	return prio
}

// growDurations resizes s to length n, reusing capacity.
func growDurations(s []time.Duration, n int) []time.Duration {
	if cap(s) < n {
		return make([]time.Duration, n)
	}
	return s[:n]
}

// growInts resizes s to length n, reusing capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growInt32s resizes s to length n, reusing capacity.
func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Simulate executes Algorithm 1 over the baseline graph with the
// overlay's timings — the clone-free counterpart of Graph.Simulate. The
// baseline is only read; the returned result carries the effective
// timings, so SimResult.Finish, TaskDuration and CriticalPath see the
// overlaid values. Results are bit-identical to cloning the baseline,
// applying the same edits to the clone's tasks, and simulating the
// clone. The default policy runs the same heap loop as Graph.Simulate,
// over the baseline's memoized flat view (int32 CSR adjacency, root
// list, thread ordinals — built once per baseline and shared by every
// overlay, patch and sweep worker bound to it) and this overlay's flat
// effective timings, so the loop chases no task pointers.
func (o *Overlay) Simulate(opts ...SimOption) (*SimResult, error) {
	var so simOptions
	for _, fn := range opts {
		fn(&so)
	}
	if err := ctxCanceled(so.ctx); err != nil {
		return nil, err
	}
	g := o.base
	if g == nil {
		return nil, fmt.Errorf("core: Overlay.Simulate: overlay has no baseline graph")
	}
	o.snapshot()
	scratch := so.scratch
	if scratch == nil {
		scratch = scratchPool.Get().(*SimScratch)
		defer scratchPool.Put(scratch)
	}
	n := len(g.tasks)
	scratch.ensure(n)

	resN := n
	if so.window > 0 {
		resN = 0 // windowed: starts and timings live in the window rings
	}
	res := newResult(so.result, resN, len(g.threads))
	var dur, gap []time.Duration
	if so.window > 0 {
		win, err := newWindowState(o, so.window, true)
		if err != nil {
			return nil, err
		}
		res.win = win
		// The loop still wants O(1) effective-timing reads, but the
		// full arrays must not ride the retained result — borrow
		// scratch storage instead, and let record copy each dispatched
		// task's timings into the O(window) rings.
		scratch.effDur = growDurations(scratch.effDur, n)
		scratch.effGap = growDurations(scratch.effGap, n)
		dur, gap = scratch.effDur, scratch.effGap
	} else {
		res.dur = growDurations(res.dur, n)
		res.gap = growDurations(res.gap, n)
		dur, gap = res.dur, res.gap
	}
	o.fillTiming(dur, gap)
	if s := customScheduler(so.scheduler); s != nil {
		return simulateScheduled(o, s, scratch, res, so.ctx)
	}
	if o.prioEdited {
		scratch.prio = growInts(scratch.prio, n)
	}
	prio := o.effPriority(scratch.prio)
	return simulateFlat(g.flat(), g.tasks, g.live, dur, gap, prio, scratch, res, &so)
}

// Materialize returns a private clone of the baseline with the
// overlay's effective timings written into its tasks — the graph the
// equivalent clone-path scenario would have produced. The sweep uses it
// to honor KeepGraphs' private-graph contract for overlay scenarios.
func (o *Overlay) Materialize() *Graph {
	c := o.base.Clone()
	for id, bt := range o.base.tasks {
		if bt == nil {
			continue
		}
		ct := c.tasks[id]
		ct.Duration = o.Duration(bt)
		ct.Gap = o.Gap(bt)
		ct.Priority = o.Priority(bt)
	}
	return c
}

// PredictIteration simulates the overlaid baseline and returns the
// makespan — the predicted iteration time under the overlay's edits.
func (o *Overlay) PredictIteration(opts ...SimOption) (time.Duration, error) {
	res, err := o.Simulate(opts...)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
