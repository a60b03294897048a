package core

import (
	"fmt"
	"time"

	"daydream/internal/trace"
)

// Patch is a copy-on-write view of an immutable baseline Graph that
// layers structural deltas — task additions, task removals, edge
// additions and removals with kinds, sequence splices — on top of the
// timing deltas of an embedded Overlay. It is the unified application
// surface of the what-if system: every Optimization applies itself to a
// Patch, timing-only models write only the timing tier, and structural
// models (Distributed's all-reduce insertion, P3's push/pull
// annotation, removal-form batchnorm restructuring) record their
// surgery without ever cloning the baseline.
//
// The view semantics mirror the Graph primitives exactly:
//
//   - NewTask allocates appendix tasks in the ID range [base.IDSpan(),
//     base.IDSpan()+added), the same IDs a clone would have handed out,
//     so simulation results are positionally interchangeable with the
//     clone path's.
//   - AppendTask / InsertAfter / InsertBefore splice the per-thread
//     sequence through override links; the baseline's own links are
//     never touched.
//   - AddDependency / RemoveDependency edit the effective edge set;
//     RemoveTask reproduces Graph.Remove's transitive-ordering
//     reconnection on the effective adjacency.
//
// Patch.Simulate runs the same Algorithm-1 heap as Graph.Simulate over
// the composite view: baseline tasks read through the delta arrays,
// appendix tasks live past the baseline's ID span, and removed
// tasks/edges are masked. Results are bit-identical to cloning the
// baseline, applying the same operations to the clone, and simulating
// it — the property internal/whatif's patch equivalence suite enforces
// across the model zoo.
//
// A Patch additionally journals its structural operations, so
// Materialize (and ApplyOptimization) can replay them onto a private
// graph for callers that need a real *Graph.
//
// A Patch is not safe for concurrent use; the sharing model is one
// patch per goroutine over one shared baseline (the sweep worker pool
// owns one per worker and Reset rebinds it per scenario, reusing all
// storage). Correlation peers are a per-task property the patch cannot
// rewrite: RemoveTask leaves the baseline's Peer links untouched (the
// materialized replay clears them on the private copy, as Graph.Remove
// does).
type Patch struct {
	base   *Graph
	timing *Overlay

	// added is the appendix: tasks created through the patch, with IDs
	// continuing the baseline's ID space in creation order.
	added []*Task
	// removed masks task IDs (baseline or appendix) deleted by
	// RemoveTask.
	removed map[int]struct{}
	// removedEdges masks baseline edges by {from, to} ID pair.
	removedEdges map[[2]int]struct{}
	// addedOut holds the patch-added out-edges keyed by source ID, and
	// addedIn the patch-added in-edge sources per target ID in addition
	// order — both the indegree contribution Simulate folds into its
	// reference counts and the deterministic parent order effParents
	// appends after the baseline's (matching the materialized graph's).
	addedOut       map[int][]patchEdge
	addedIn        map[int][]*Task
	addedEdgeCount int

	// Sequence-chain overrides: present keys shadow the baseline's
	// seqPrev/seqNext links and per-thread head/tail (a nil value means
	// "end of chain" / "empty thread").
	seqNextOv map[int]*Task
	seqPrevOv map[int]*Task
	headOv    map[ThreadID]*Task
	tailOv    map[ThreadID]*Task

	// ops is the structural journal, replayed by materializeInto.
	ops []patchOp

	// Materialization memo: mat is the last Materialize result, valid
	// while the structural journal length and the timing tier's edit
	// generation still match the values captured at materialization.
	// matCount counts actual clone+replay materializations, for the
	// double-materialization regression tests.
	mat      *Graph
	matOps   int
	matGen   uint64
	matCount int

	// Reusable simulation storage (see Simulate).
	threadIDs   []ThreadID
	threadOf    []int32
	maskRemoved []bool
	remOut      []bool
	outEdges    [][]patchEdge
	tasksView   []*Task
}

// patchEdge is one patch-added edge endpoint.
type patchEdge struct {
	to   *Task
	kind DepKind
}

// patchOp is one journaled structural operation.
type patchOp struct {
	kind   opKind
	t      *Task // subject (new task, removed task, edge target)
	anchor *Task // insertion anchor / edge source
	dep    DepKind
}

type opKind uint8

const (
	opNewTask opKind = iota
	opAppendTask
	opInsertAfter
	opInsertBefore
	opAddDep
	opRemoveDep
	opRemoveTask
)

// NewPatch returns an empty patch over the baseline graph.
func NewPatch(g *Graph) *Patch {
	return &Patch{base: g, timing: NewOverlay(g)}
}

// ensureStructural lazily allocates the structural delta maps on the
// first structural mutator call. A pure-timing patch (the common case
// for timing-only sweeps) therefore never allocates them; every read
// path tolerates the nil maps (nil-map reads, ranges and clears are all
// no-ops in Go).
func (p *Patch) ensureStructural() {
	if p.removed != nil {
		return
	}
	p.removed = make(map[int]struct{})
	p.removedEdges = make(map[[2]int]struct{})
	p.addedOut = make(map[int][]patchEdge)
	p.addedIn = make(map[int][]*Task)
	p.seqNextOv = make(map[int]*Task)
	p.seqPrevOv = make(map[int]*Task)
	p.headOv = make(map[ThreadID]*Task)
	p.tailOv = make(map[ThreadID]*Task)
}

// Base returns the baseline graph the patch views.
func (p *Patch) Base() *Graph { return p.base }

// Timing returns the patch's timing tier: the copy-on-write Overlay
// holding its duration/gap/priority deltas over baseline tasks.
func (p *Patch) Timing() *Overlay { return p.timing }

// Structural reports whether the patch carries structural deltas (task
// or edge additions/removals). A non-structural patch simulates on the
// pure timing-overlay fast path.
func (p *Patch) Structural() bool { return len(p.ops) > 0 }

// Reset drops every delta and rebinds the patch to the given baseline
// (which may be the current one), retaining all allocated storage — the
// sweep worker pool relies on this to keep per-scenario evaluation
// nearly allocation-free.
func (p *Patch) Reset(g *Graph) {
	p.timing.Reset(g)
	p.base = g
	p.added = p.added[:0]
	p.ops = p.ops[:0]
	p.addedEdgeCount = 0
	p.mat = nil
	clear(p.removed)
	clear(p.removedEdges)
	clear(p.addedOut)
	clear(p.addedIn)
	clear(p.seqNextOv)
	clear(p.seqPrevOv)
	clear(p.headOv)
	clear(p.tailOv)
}

// baseSpan returns the baseline's ID span (appendix IDs start here).
func (p *Patch) baseSpan() int { return len(p.base.tasks) }

// IDSpan returns the exclusive upper bound of effective task IDs:
// baseline span plus appendix length. SimResult.Start has this length.
func (p *Patch) IDSpan() int { return p.baseSpan() + len(p.added) }

// NumTasks returns the number of live tasks in the effective view.
func (p *Patch) NumTasks() int { return p.base.live + len(p.added) - len(p.removed) }

// isAppendix reports whether t is one of the patch's own tasks.
func (p *Patch) isAppendix(t *Task) bool {
	i := t.ID - p.baseSpan()
	return i >= 0 && i < len(p.added) && p.added[i] == t
}

// contains reports whether t is live in the effective view.
func (p *Patch) contains(t *Task) bool {
	if t == nil {
		return false
	}
	if _, gone := p.removed[t.ID]; gone {
		return false
	}
	return p.base.containsTask(t) || p.isAppendix(t)
}

// Task returns the effective task with the given ID, or nil.
func (p *Patch) Task(id int) *Task {
	if _, gone := p.removed[id]; gone {
		return nil
	}
	if i := id - p.baseSpan(); i >= 0 {
		if i < len(p.added) {
			return p.added[i]
		}
		return nil
	}
	return p.base.Task(id)
}

// Tasks returns the effective task set in creation order: live unmasked
// baseline tasks followed by the appendix. The returned slice's backing
// array is reused by the next call; callers must not retain or modify
// it.
func (p *Patch) Tasks() []*Task {
	out := p.tasksView[:0]
	for _, t := range p.base.tasks {
		if t == nil {
			continue
		}
		if _, gone := p.removed[t.ID]; gone {
			continue
		}
		out = append(out, t)
	}
	for _, t := range p.added {
		if _, gone := p.removed[t.ID]; gone {
			continue
		}
		out = append(out, t)
	}
	p.tasksView = out
	return out
}

// Timing tier accessors. For baseline tasks these delegate to the
// overlay; appendix tasks are private to the patch, so their fields are
// read and written directly.

// Duration returns the task's effective duration under the patch.
func (p *Patch) Duration(t *Task) time.Duration {
	if p.isAppendix(t) {
		return t.Duration
	}
	return p.timing.Duration(t)
}

// Gap returns the task's effective gap under the patch.
func (p *Patch) Gap(t *Task) time.Duration {
	if p.isAppendix(t) {
		return t.Gap
	}
	return p.timing.Gap(t)
}

// Priority returns the task's effective scheduling priority.
func (p *Patch) Priority(t *Task) int {
	if p.isAppendix(t) {
		return t.Priority
	}
	return p.timing.Priority(t)
}

// SetDuration overrides the task's duration without touching the
// baseline.
func (p *Patch) SetDuration(t *Task, d time.Duration) {
	if p.isAppendix(t) {
		t.Duration = d
		p.mat = nil
		return
	}
	p.timing.SetDuration(t, d)
}

// SetGap overrides the task's gap without touching the baseline.
func (p *Patch) SetGap(t *Task, d time.Duration) {
	if p.isAppendix(t) {
		t.Gap = d
		p.mat = nil
		return
	}
	p.timing.SetGap(t, d)
}

// SetPriority overrides the task's scheduling priority without touching
// the baseline.
func (p *Patch) SetPriority(t *Task, prio int) {
	if p.isAppendix(t) {
		t.Priority = prio
		p.mat = nil
		return
	}
	p.timing.SetPriority(t, prio)
}

// ScaleDuration multiplies the task's effective duration by factor,
// with the same arithmetic as the Scale primitive.
func (p *Patch) ScaleDuration(t *Task, factor float64) {
	p.SetDuration(t, time.Duration(float64(p.Duration(t))*factor))
}

// NewTask creates an appendix task with the next effective ID — exactly
// the ID Graph.NewTask would allocate on a clone of the baseline, so
// patch and clone results stay positionally interchangeable. The task
// is not yet placed on a thread; use AppendTask, InsertAfter or
// InsertBefore.
func (p *Patch) NewTask(name string, kind trace.Kind, thread ThreadID, dur time.Duration) *Task {
	t := &Task{
		ID:         p.IDSpan(),
		Name:       name,
		Kind:       kind,
		Thread:     thread,
		Duration:   dur,
		LayerIndex: -1,
	}
	p.ensureStructural()
	p.added = append(p.added, t)
	p.ops = append(p.ops, patchOp{kind: opNewTask, t: t})
	return t
}

// Effective sequence links: override maps shadow the baseline fields;
// appendix tasks have no baseline fields and live in the maps only.

func (p *Patch) effSeqNext(t *Task) *Task {
	if v, ok := p.seqNextOv[t.ID]; ok {
		return v
	}
	if p.isAppendix(t) {
		return nil
	}
	return t.seqNext
}

func (p *Patch) effSeqPrev(t *Task) *Task {
	if v, ok := p.seqPrevOv[t.ID]; ok {
		return v
	}
	if p.isAppendix(t) {
		return nil
	}
	return t.seqPrev
}

func (p *Patch) effTail(tid ThreadID) *Task {
	if v, ok := p.tailOv[tid]; ok {
		return v
	}
	if l := p.base.threads[tid]; l != nil {
		return l.tail
	}
	return nil
}

func (p *Patch) effHead(tid ThreadID) *Task {
	if v, ok := p.headOv[tid]; ok {
		return v
	}
	if l := p.base.threads[tid]; l != nil {
		return l.head
	}
	return nil
}

// requirePlaceable guards the placement primitives: only patch-created
// (appendix) tasks may be placed on a thread. Placing a baseline task
// would mean moving it — which the patch cannot express without
// mutating the shared graph (InsertAfter writes t.Thread).
func (p *Patch) requirePlaceable(who string, t *Task) error {
	if t == nil {
		return fmt.Errorf("core: Patch.%s: nil task", who)
	}
	if !p.isAppendix(t) {
		return fmt.Errorf("core: Patch.%s: task %v is not patch-created; only tasks from Patch.NewTask can be placed (the shared baseline is immutable)", who, t)
	}
	return nil
}

// AppendTask places t — a task created by Patch.NewTask — at the tail
// of its thread's effective sequence, adding the sequence dependency
// from the previous tail: the patch form of Graph.AppendTask. Passing
// a task the patch did not create is a programming error (the shared
// baseline is immutable and its tasks cannot be moved) and panics;
// the Insert forms report the same misuse through their error return.
func (p *Patch) AppendTask(t *Task) {
	if err := p.requirePlaceable("AppendTask", t); err != nil {
		panic(err)
	}
	p.ensureStructural()
	p.ops = append(p.ops, patchOp{kind: opAppendTask, t: t})
	tail := p.effTail(t.Thread)
	if tail != nil {
		p.seqPrevOv[t.ID] = tail
		p.seqNextOv[tail.ID] = t
		p.addEdgeView(tail, t, DepSequence)
	} else {
		p.headOv[t.Thread] = t
	}
	p.tailOv[t.Thread] = t
}

// InsertAfter places t — a task created by Patch.NewTask — on prev's
// thread immediately after prev, splicing the effective sequence chain
// (the paper's Insert primitive).
func (p *Patch) InsertAfter(prev, t *Task) error {
	if prev == nil {
		return fmt.Errorf("core: Patch.InsertAfter: nil anchor")
	}
	if !p.contains(prev) {
		return fmt.Errorf("core: Patch.InsertAfter: anchor %v not in effective view", prev)
	}
	if err := p.requirePlaceable("InsertAfter", t); err != nil {
		return err
	}
	p.ensureStructural()
	p.ops = append(p.ops, patchOp{kind: opInsertAfter, t: t, anchor: prev})
	t.Thread = prev.Thread
	next := p.effSeqNext(prev)
	p.seqPrevOv[t.ID] = prev
	p.seqNextOv[t.ID] = next
	p.seqNextOv[prev.ID] = t
	if next != nil {
		p.seqPrevOv[next.ID] = t
		p.removeEdgeView(prev, next)
		p.addEdgeView(t, next, DepSequence)
	} else {
		p.tailOv[t.Thread] = t
	}
	p.addEdgeView(prev, t, DepSequence)
	return nil
}

// InsertBefore places t — a task created by Patch.NewTask — on next's
// thread immediately before next.
func (p *Patch) InsertBefore(next, t *Task) error {
	if next == nil {
		return fmt.Errorf("core: Patch.InsertBefore: nil anchor")
	}
	if !p.contains(next) {
		return fmt.Errorf("core: Patch.InsertBefore: anchor %v not in effective view", next)
	}
	if err := p.requirePlaceable("InsertBefore", t); err != nil {
		return err
	}
	p.ensureStructural()
	if prev := p.effSeqPrev(next); prev != nil {
		return p.InsertAfter(prev, t)
	}
	p.ops = append(p.ops, patchOp{kind: opInsertBefore, t: t, anchor: next})
	t.Thread = next.Thread
	p.seqNextOv[t.ID] = next
	p.seqPrevOv[t.ID] = nil
	p.seqPrevOv[next.ID] = t
	p.headOv[t.Thread] = t
	p.addEdgeView(t, next, DepSequence)
	return nil
}

// AddDependency adds an effective edge from → to of the given kind,
// with Graph.AddDependency's semantics: duplicate edges are ignored
// (the first kind wins), self-edges and nil tasks are rejected. Both
// endpoints must be live in the effective view — an edge touching a
// removed (or foreign) task is rejected, exactly as the materialized
// replay would fail it, so the composite view can never disagree with
// the clone path about a dangling edge.
func (p *Patch) AddDependency(from, to *Task, kind DepKind) error {
	if from == nil || to == nil {
		return fmt.Errorf("core: Patch.AddDependency: nil task")
	}
	if from == to {
		return fmt.Errorf("core: Patch.AddDependency: self edge on %v", from)
	}
	if !p.contains(from) {
		return fmt.Errorf("core: Patch.AddDependency: task %v not in effective view", from)
	}
	if !p.contains(to) {
		return fmt.Errorf("core: Patch.AddDependency: task %v not in effective view", to)
	}
	p.ensureStructural()
	if !p.addEdgeView(from, to, kind) {
		return nil // duplicate, like Graph.AddDependency
	}
	p.ops = append(p.ops, patchOp{kind: opAddDep, anchor: from, t: to, dep: kind})
	return nil
}

// RemoveDependency removes the effective edge from → to, whether it
// came from the baseline or the patch. It reports whether an edge was
// removed.
func (p *Patch) RemoveDependency(from, to *Task) bool {
	if from == nil || to == nil {
		return false
	}
	p.ensureStructural()
	if !p.removeEdgeView(from, to) {
		return false
	}
	p.ops = append(p.ops, patchOp{kind: opRemoveDep, anchor: from, t: to})
	return true
}

// effHasEdge reports whether the effective edge a → b exists.
func (p *Patch) effHasEdge(a, b *Task) bool {
	for _, e := range p.addedOut[a.ID] {
		if e.to == b {
			return true
		}
	}
	if p.base.containsTask(a) && p.base.containsTask(b) && hasEdge(a, b) {
		_, gone := p.removedEdges[[2]int{a.ID, b.ID}]
		return !gone
	}
	return false
}

// addEdgeView records the effective edge a → b, deduplicating against
// both the baseline and earlier patch edges. It reports whether an edge
// was added. Internal callers (sequence splices, Remove reconnection)
// do not journal the edge: the materialized replay reproduces it
// through the journaled primitive.
func (p *Patch) addEdgeView(a, b *Task, kind DepKind) bool {
	if p.effHasEdge(a, b) {
		return false
	}
	p.addedOut[a.ID] = append(p.addedOut[a.ID], patchEdge{to: b, kind: kind})
	p.addedIn[b.ID] = append(p.addedIn[b.ID], a)
	p.addedEdgeCount++
	return true
}

// removeEdgeView removes the effective edge a → b: a patch-added edge
// is dropped from the delta, a baseline edge is masked. It reports
// whether an edge was removed.
func (p *Patch) removeEdgeView(a, b *Task) bool {
	if list, ok := p.addedOut[a.ID]; ok {
		for i, e := range list {
			if e.to == b {
				p.addedOut[a.ID] = append(list[:i], list[i+1:]...)
				if ins := p.addedIn[b.ID]; len(ins) > 0 {
					for j, q := range ins {
						if q == a {
							p.addedIn[b.ID] = append(ins[:j], ins[j+1:]...)
							break
						}
					}
				}
				p.addedEdgeCount--
				return true
			}
		}
	}
	if p.base.containsTask(a) && p.base.containsTask(b) && hasEdge(a, b) {
		key := [2]int{a.ID, b.ID}
		if _, gone := p.removedEdges[key]; !gone {
			p.removedEdges[key] = struct{}{}
			return true
		}
	}
	return false
}

// edgeLive reports whether the baseline edge from → to survives the
// patch's edge-removal mask (the endpoints' own liveness is checked by
// the caller).
func (p *Patch) edgeLive(from, to int) bool {
	_, gone := p.removedEdges[[2]int{from, to}]
	return !gone
}

// effParents returns t's live effective dependency parents (fresh
// slice): unmasked baseline parents in baseline order, then patch-added
// in-edges in addition order — the exact parent order the materialized
// graph would carry, so order-sensitive consumers (the critical-path
// walk, RemoveTask's reconnection) behave identically on both.
func (p *Patch) effParents(t *Task) []*Task {
	var out []*Task
	if !p.isAppendix(t) {
		for _, q := range t.parents {
			if _, gone := p.removed[q.ID]; gone {
				continue
			}
			if p.edgeLive(q.ID, t.ID) {
				out = append(out, q)
			}
		}
	}
	for _, q := range p.addedIn[t.ID] {
		if _, gone := p.removed[q.ID]; gone {
			continue
		}
		out = append(out, q)
	}
	return out
}

// effChildren returns t's live effective dependents (fresh slice).
func (p *Patch) effChildren(t *Task) []*Task {
	var out []*Task
	if !p.isAppendix(t) {
		for _, c := range t.children {
			if _, gone := p.removed[c.ID]; gone {
				continue
			}
			if p.edgeLive(t.ID, c.ID) {
				out = append(out, c)
			}
		}
	}
	for _, e := range p.addedOut[t.ID] {
		if _, gone := p.removed[e.to.ID]; gone {
			continue
		}
		out = append(out, e.to)
	}
	return out
}

// RemoveTask deletes a task from the effective view (the paper's Remove
// primitive), reproducing Graph.Remove's semantics exactly: the
// effective thread sequence is spliced around it, and every
// non-sequence ordering constraint through the task is preserved by
// reconnecting its remaining maximal parents to its remaining minimal
// children (the same bipartite core Graph.Remove materializes).
func (p *Patch) RemoveTask(t *Task) {
	if !p.contains(t) {
		return
	}
	p.ensureStructural()
	p.ops = append(p.ops, patchOp{kind: opRemoveTask, t: t})
	// Splice the effective thread sequence.
	prev, next := p.effSeqPrev(t), p.effSeqNext(t)
	if prev != nil {
		p.seqNextOv[prev.ID] = next
	} else {
		p.headOv[t.Thread] = next
	}
	if next != nil {
		p.seqPrevOv[next.ID] = prev
	} else {
		p.tailOv[t.Thread] = prev
	}
	// Snapshot effective edges, then unlink them.
	parents := p.effParents(t)
	children := p.effChildren(t)
	for _, q := range parents {
		p.removeEdgeView(q, t)
	}
	for _, c := range children {
		p.removeEdgeView(t, c)
	}
	// Restore the sequence chain.
	if prev != nil && next != nil {
		p.addEdgeView(prev, next, DepSequence)
	}
	// Reconnect maximal parents to minimal children, as Graph.Remove
	// does (ordering among siblings implies the rest).
	maxParents := parents
	if len(parents) > 1 {
		maxParents = make([]*Task, 0, len(parents))
		for _, a := range parents {
			implied := false
			for _, q := range parents {
				if q != a && p.effHasEdge(a, q) {
					implied = true
					break
				}
			}
			if !implied {
				maxParents = append(maxParents, a)
			}
		}
	}
	minChildren := children
	if len(children) > 1 {
		minChildren = make([]*Task, 0, len(children))
		for _, c := range children {
			implied := false
			for _, d := range children {
				if d != c && p.effHasEdge(d, c) {
					implied = true
					break
				}
			}
			if !implied {
				minChildren = append(minChildren, c)
			}
		}
	}
	for _, a := range maxParents {
		for _, c := range minChildren {
			if a == c {
				continue
			}
			if a == prev && c == next {
				continue // already restored as sequence
			}
			p.addEdgeView(a, c, DepCustom)
		}
	}
	p.removed[t.ID] = struct{}{}
}

// growBools resizes s to length n, reusing capacity, and clears it.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growEdgeLists resizes s to length n, reusing capacity, and clears it.
func growEdgeLists(s [][]patchEdge, n int) [][]patchEdge {
	if cap(s) < n {
		return make([][]patchEdge, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Simulate executes Algorithm 1 over the composite view — the
// structural counterpart of Overlay.Simulate. Baseline tasks read their
// timings through the patch's timing tier, appendix tasks execute with
// their own fields, masked tasks and edges are skipped, and patch-added
// edges contribute to reference counts and relaxation exactly as real
// edges would. The baseline is only read; results are bit-identical to
// materializing the patch into a private clone and simulating that.
//
// A patch with no structural deltas delegates to the timing tier's
// Simulate, so timing-only scenarios keep the pure-overlay fast path.
// Custom Schedulers run directly over the composite view too: the
// slice-frontier scheduled path reads effective timings, priorities and
// adjacency through the patch, so vDNN-style scheduling policies on a
// structural patch are just as clone-free as the default policy.
func (p *Patch) Simulate(opts ...SimOption) (*SimResult, error) {
	if !p.Structural() {
		return p.timing.Simulate(opts...)
	}
	var so simOptions
	for _, fn := range opts {
		fn(&so)
	}
	if err := ctxCanceled(so.ctx); err != nil {
		return nil, err
	}
	g := p.base
	if g == nil {
		return nil, fmt.Errorf("core: Patch.Simulate: patch has no baseline graph")
	}
	o := p.timing
	o.snapshot()
	baseSpan := len(g.tasks)
	n := baseSpan + len(p.added)
	scratch := so.scratch
	if scratch == nil {
		scratch = scratchPool.Get().(*SimScratch)
		defer scratchPool.Put(scratch)
	}
	scratch.ensure(n)

	resN := n
	if so.window > 0 {
		resN = 0 // windowed: starts and timings live in the window rings
	}
	res := newResult(so.result, resN, len(g.threads)+1)
	var dur, gap []time.Duration
	if so.window > 0 {
		win, err := newWindowState(p, so.window, true)
		if err != nil {
			return nil, err
		}
		res.win = win
		// Effective timings go to borrowed scratch storage so the
		// retained result stays O(window); record copies each dispatched
		// task's timings into the rings.
		scratch.effDur = growDurations(scratch.effDur, n)
		scratch.effGap = growDurations(scratch.effGap, n)
		dur, gap = scratch.effDur, scratch.effGap
	} else {
		res.dur = growDurations(res.dur, n)
		res.gap = growDurations(res.gap, n)
		dur, gap = res.dur, res.gap
	}
	o.fillTiming(dur[:baseSpan], gap[:baseSpan])
	for i, t := range p.added {
		dur[baseSpan+i] = t.Duration
		gap[baseSpan+i] = t.Gap
	}
	if s := customScheduler(so.scheduler); s != nil {
		return simulateScheduled(p, s, scratch, res, so.ctx)
	}
	// Effective priorities: the timing tier's for baseline IDs (filled
	// in place, or the snapshot copied in), the tasks' own for the
	// appendix.
	prio := growInts(scratch.prio, n)
	scratch.prio = prio
	copy(prio, o.effPriority(prio[:baseSpan]))
	for i, t := range p.added {
		prio[baseSpan+i] = t.Priority
	}

	// Thread layout: the baseline's ordinals extended with any threads
	// only the appendix uses.
	fv := g.flat()
	p.threadIDs = append(p.threadIDs[:0], fv.threadIDs...)
	p.threadOf = growInt32s(p.threadOf, n)
	copy(p.threadOf, fv.threadOf)
	for i, t := range p.added {
		ti := int32(-1)
		for j, tid := range p.threadIDs {
			if tid == t.Thread {
				ti = int32(j)
				break
			}
		}
		if ti < 0 {
			ti = int32(len(p.threadIDs))
			p.threadIDs = append(p.threadIDs, t.Thread)
		}
		p.threadOf[baseSpan+i] = ti
	}

	// Dense delta masks for the hot loop: O(deltas) to fill after an
	// O(n) clear, so per-edge checks cost an array index, not a map
	// lookup.
	p.maskRemoved = growBools(p.maskRemoved, n)
	for id := range p.removed {
		p.maskRemoved[id] = true
	}
	p.remOut = growBools(p.remOut, n)
	for key := range p.removedEdges {
		p.remOut[key[0]] = true
	}
	p.outEdges = growEdgeLists(p.outEdges, n)
	for id, list := range p.addedOut {
		p.outEdges[id] = list
	}
	maskRemoved, remOut, outEdges := p.maskRemoved, p.remOut, p.outEdges
	// baseLive reports whether the baseline edge u → c survives the
	// patch (u itself is live).
	baseLive := func(u, c int32) bool {
		return !maskRemoved[c] && (!remOut[u] || p.edgeLive(int(u), int(c)))
	}

	// Reference counts and earliest starts over the effective edge set:
	// the baseline in-degrees as they are, or — once tasks or edges are
	// masked — recounted over the surviving baseline edges.
	ref, earliest := scratch.ref, scratch.earliest
	clear(earliest)
	if len(p.removed) == 0 && len(p.removedEdges) == 0 {
		copy(ref, fv.indeg)
	} else {
		clear(ref[:baseSpan])
		for id, t := range g.tasks {
			if t == nil || maskRemoved[id] {
				continue
			}
			for _, c := range fv.children(int32(id)) {
				if baseLive(int32(id), c) {
					ref[c]++
				}
			}
		}
	}
	clear(ref[baseSpan:])
	// Patch-added in-edges contribute indegree only when their source is
	// live — the same liveness rule the relax loop and the scheduled
	// path's eachChild apply, so the two simulation paths can never
	// disagree about a dangling edge.
	for id, ins := range p.addedIn {
		if maskRemoved[id] {
			continue
		}
		for _, q := range ins {
			if !maskRemoved[q.ID] {
				ref[id]++
			}
		}
	}

	threadOf := p.threadOf
	tEnds := growDurations(scratch.threadEnds, len(p.threadIDs))
	scratch.threadEnds = tEnds
	for i := range tEnds {
		tEnds[i] = untouched
	}
	h := scratch.heap
	for id, t := range g.tasks {
		if t != nil && !maskRemoved[id] && ref[id] == 0 {
			h = heapPush(h, heapEntry{0, prio[id], int32(id)})
		}
	}
	for id := baseSpan; id < n; id++ {
		if !maskRemoved[id] && ref[id] == 0 {
			h = heapPush(h, heapEntry{0, prio[id], int32(id)})
		}
	}
	// One relax closure for the whole run; end is threaded through a
	// local.
	var end time.Duration
	relax := func(c int32) {
		if end > earliest[c] {
			earliest[c] = end
		}
		ref[c]--
		if ref[c] == 0 {
			key := earliest[c]
			if pe := tEnds[threadOf[c]]; pe > key {
				key = pe
			}
			h = heapPush(h, heapEntry{key, prio[c], c})
		}
	}
	executed := 0
	for len(h) > 0 {
		var e heapEntry
		e, h = heapPop(h)
		u := e.id
		start := earliest[u]
		if pe := tEnds[threadOf[u]]; pe > start {
			start = pe
		}
		if start > e.key {
			h = heapPush(h, heapEntry{start, e.prio, u})
			continue
		}
		end = start + dur[u] + gap[u]
		if res.win == nil {
			res.Start[u] = start
		} else {
			res.win.record(p.taskAt(int(u)), start, dur[u], gap[u])
		}
		tEnds[threadOf[u]] = end
		if end > res.Makespan {
			res.Makespan = end
		}
		executed++
		if so.ctx != nil && executed%cancelCheckInterval == 0 {
			if cerr := so.ctx.Err(); cerr != nil {
				scratch.heap = h[:0]
				return nil, ContextError(cerr)
			}
		}
		if int(u) < baseSpan {
			for _, c := range fv.children(u) {
				if baseLive(u, c) {
					relax(c)
				}
			}
		}
		for _, pe := range outEdges[u] {
			if !maskRemoved[pe.to.ID] {
				relax(int32(pe.to.ID))
			}
		}
	}
	scratch.heap = h[:0]
	if live := p.NumTasks(); executed != live {
		var blocked []*Task
		for id := 0; id < n; id++ {
			if t := p.taskAt(id); t != nil && !maskRemoved[id] && ref[id] > 0 {
				blocked = append(blocked, t)
			}
		}
		return nil, newStallError(executed, live, blocked)
	}
	for i, end := range tEnds {
		if end != untouched {
			res.ThreadEnd[p.threadIDs[i]] = end
		}
	}
	return res, nil
}

// taskAt returns the task with effective ID id — baseline or appendix —
// regardless of the removal mask (nil for a baseline hole).
func (p *Patch) taskAt(id int) *Task {
	if i := id - len(p.base.tasks); i >= 0 {
		return p.added[i]
	}
	return p.base.tasks[id]
}

// PredictIteration simulates the patched baseline and returns the
// makespan — the predicted iteration time under the patch's deltas.
func (p *Patch) PredictIteration(opts ...SimOption) (time.Duration, error) {
	res, err := p.Simulate(opts...)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// Materialize returns a private clone of the baseline with the patch's
// timing deltas written into its tasks and the structural journal
// replayed onto it — the graph the equivalent clone-path scenario would
// have produced. The sweep uses it to honor KeepGraphs' private-graph
// contract for patch scenarios.
//
// The result is memoized: calling Materialize again without an
// intervening edit through the patch (structural primitives, Set*
// timing edits, Reset) returns the same graph instead of paying the
// clone+replay again. Callers that intend to mutate the returned graph
// and keep materializing from the patch should Clone it first; writes
// that bypass the patch (direct field assignments on appendix tasks)
// are not tracked and do not invalidate the memo.
func (p *Patch) Materialize() (*Graph, error) {
	if p.mat != nil && p.matOps == len(p.ops) && p.matGen == p.timing.generation() {
		return p.mat, nil
	}
	c := p.base.Clone()
	if err := p.materializeInto(c); err != nil {
		return nil, err
	}
	p.mat, p.matOps, p.matGen = c, len(p.ops), p.timing.generation()
	p.matCount++
	return c, nil
}

// Materializations returns how many times the patch actually paid the
// clone+replay cost of Materialize (memo hits are free). Diagnostic;
// the double-materialization regression tests pin it.
func (p *Patch) Materializations() int { return p.matCount }

// Validate checks the effective composite view for the invariants
// Simulate assumes, returning the first violation as a typed error:
// every patch-added edge and sequence override must reference tasks
// live in the view (ErrDanglingEdge), every effective duration and
// duration+gap must be non-negative (ErrNegativeDuration), and the
// effective dependency graph must be acyclic (ErrCycle, via a
// CycleError naming the unorderable tasks). A patch built solely
// through the public primitives cannot dangle — AddDependency and the
// placement primitives reject dead endpoints up front — so the edge
// checks guard against baselines mutated underneath a bound patch, the
// exact corruption a long-lived service sharing baselines across
// requests must detect rather than mis-simulate.
func (p *Patch) Validate() error {
	if p.base == nil {
		return fmt.Errorf("core: Patch.Validate: patch has no baseline graph")
	}
	// Patch-added edges: both endpoints live in the effective view.
	for srcID, edges := range p.addedOut {
		src := p.Task(srcID)
		if src == nil {
			return fmt.Errorf("%w: patch edge from dead task #%d", ErrDanglingEdge, srcID)
		}
		for _, e := range edges {
			if !p.contains(e.to) {
				return fmt.Errorf("%w: patch edge %v → %v targets a task not live in the view", ErrDanglingEdge, src, e.to)
			}
		}
	}
	// Sequence-chain overrides: present links must point at live tasks
	// (nil means end-of-chain and is always fine).
	for id, nxt := range p.seqNextOv {
		if nxt != nil && !p.contains(nxt) {
			return fmt.Errorf("%w: sequence override after #%d points at dead task %v", ErrDanglingEdge, id, nxt)
		}
	}
	for id, prv := range p.seqPrevOv {
		if prv != nil && !p.contains(prv) {
			return fmt.Errorf("%w: sequence override before #%d points at dead task %v", ErrDanglingEdge, id, prv)
		}
	}
	for tid, h := range p.headOv {
		if h != nil && !p.contains(h) {
			return fmt.Errorf("%w: head override of thread %v points at dead task %v", ErrDanglingEdge, tid, h)
		}
	}
	for tid, tl := range p.tailOv {
		if tl != nil && !p.contains(tl) {
			return fmt.Errorf("%w: tail override of thread %v points at dead task %v", ErrDanglingEdge, tid, tl)
		}
	}
	// Effective timings: the simulator's monotonicity arguments assume
	// non-negative durations and non-negative duration+gap.
	var badTiming error
	p.eachTask(func(t *Task) {
		if badTiming != nil {
			return
		}
		d, gp := p.Duration(t), p.Gap(t)
		if d < 0 {
			badTiming = fmt.Errorf("%w: task %v has effective duration %v", ErrNegativeDuration, t, d)
		} else if d+gp < 0 {
			badTiming = fmt.Errorf("%w: task %v has effective duration+gap %v", ErrNegativeDuration, t, d+gp)
		}
	})
	if badTiming != nil {
		return badTiming
	}
	// Kahn's algorithm over the effective view for cycle detection.
	span := p.IDSpan()
	ref := make([]int, span)
	var frontier []*Task
	live := 0
	p.eachTask(func(t *Task) {
		live++
		n := len(p.effParents(t))
		ref[t.ID] = n
		if n == 0 {
			frontier = append(frontier, t)
		}
	})
	seen := 0
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		seen++
		p.eachChild(t, func(c *Task) {
			ref[c.ID]--
			if ref[c.ID] == 0 {
				frontier = append(frontier, c)
			}
		})
	}
	if seen != live {
		var members []*Task
		p.eachTask(func(t *Task) {
			if ref[t.ID] > 0 {
				members = append(members, t)
			}
		})
		return newCycleError(members)
	}
	return nil
}

// materializeInto applies the patch to target, which must be either the
// baseline itself (private to the caller) or a clone of it: effective
// timings are written into the live tasks, then the structural journal
// is replayed through the Graph primitives, so the result is exactly
// what the clone path would have built.
func (p *Patch) materializeInto(target *Graph) error {
	baseSpan := p.baseSpan()
	for id, bt := range p.base.tasks {
		if bt == nil {
			continue
		}
		ct := target.tasks[id]
		ct.Duration = p.timing.Duration(bt)
		ct.Gap = p.timing.Gap(bt)
		ct.Priority = p.timing.Priority(bt)
	}
	var appendix map[*Task]*Task
	if len(p.added) > 0 {
		appendix = make(map[*Task]*Task, len(p.added))
	}
	mapT := func(t *Task) *Task {
		if t == nil {
			return nil
		}
		if t.ID < baseSpan {
			return target.tasks[t.ID]
		}
		return appendix[t]
	}
	for _, op := range p.ops {
		switch op.kind {
		case opNewTask:
			nt := target.NewTask(op.t.Name, op.t.Kind, op.t.Thread, op.t.Duration)
			nt.Gap = op.t.Gap
			nt.TracedStart = op.t.TracedStart
			nt.TracedDuration = op.t.TracedDuration
			nt.Layer, nt.LayerIndex, nt.Phase, nt.HasLayer = op.t.Layer, op.t.LayerIndex, op.t.Phase, op.t.HasLayer
			nt.Correlation = op.t.Correlation
			nt.Bytes = op.t.Bytes
			nt.Dir = op.t.Dir
			nt.Priority = op.t.Priority
			nt.Round = op.t.Round
			appendix[op.t] = nt
		case opAppendTask:
			target.AppendTask(mapT(op.t))
		case opInsertAfter:
			if err := target.InsertAfter(mapT(op.anchor), mapT(op.t)); err != nil {
				return err
			}
		case opInsertBefore:
			if err := target.InsertBefore(mapT(op.anchor), mapT(op.t)); err != nil {
				return err
			}
		case opAddDep:
			if err := target.AddDependency(mapT(op.anchor), mapT(op.t), op.dep); err != nil {
				return err
			}
		case opRemoveDep:
			target.RemoveDependency(mapT(op.anchor), mapT(op.t))
		case opRemoveTask:
			target.Remove(mapT(op.t))
		}
	}
	return nil
}
