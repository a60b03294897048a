package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Scheduler picks the next task to dispatch from the execution frontier —
// the paper's overridable schedule() of Algorithm 1 (§4.4 "Schedule").
//
// Pick returns the index into frontier of the task to dispatch; the
// simulator removes the pick with an O(1) swap, so a custom policy costs
// one frontier scan per step, not two. The SchedContext exposes the
// effective state of the view the simulation runs over — a *Graph, an
// *Overlay or a structural *Patch — so one policy evaluates clone-free
// everywhere: read timings and priorities through ctx (ctx.Priority,
// ctx.Duration), never from raw Task fields, which hold baseline values
// under an overlay or patch. Implementations must be deterministic.
// Returning an index outside [0, len(frontier)) aborts the simulation
// with an error.
type Scheduler interface {
	Pick(frontier []*Task, ctx *SchedContext) int
}

// SchedContext is the read surface a Scheduler picks through: the
// effective per-task attributes of the simulation's task view plus the
// evolving schedule state (earliest starts, per-thread progress). It is
// valid only for the duration of the Pick call that receives it.
type SchedContext struct {
	view      TaskView
	earliest  []time.Duration
	threadEnd map[ThreadID]time.Duration
}

// View returns the task view the simulation runs over: the *Graph
// itself, or the *Overlay/*Patch whose effective attributes the
// scheduler must read through.
func (c *SchedContext) View() TaskView { return c.view }

// EffStart returns the earliest time the task could begin given its
// completed dependencies and current thread progress.
func (c *SchedContext) EffStart(t *Task) time.Duration {
	es := c.earliest[t.ID]
	if p := c.threadEnd[t.Thread]; p > es {
		es = p
	}
	return es
}

// Duration returns the task's effective duration under the view.
func (c *SchedContext) Duration(t *Task) time.Duration { return c.view.Duration(t) }

// Gap returns the task's effective gap under the view.
func (c *SchedContext) Gap(t *Task) time.Duration { return c.view.Gap(t) }

// Priority returns the task's effective scheduling priority under the
// view — including priorities overlaid by a what-if, which Task.Priority
// cannot see.
func (c *SchedContext) Priority(t *Task) int { return c.view.Priority(t) }

// EarliestStart is the default scheduler: the frontier task with the
// earliest effective start wins; ties fall to higher priority, then lower
// task ID.
type EarliestStart struct{}

// Pick implements Scheduler.
func (EarliestStart) Pick(frontier []*Task, ctx *SchedContext) int {
	best := -1
	var bestT time.Duration
	var bestPrio int
	for i, t := range frontier {
		et := ctx.EffStart(t)
		switch {
		case best < 0, et < bestT:
			best, bestT, bestPrio = i, et, ctx.Priority(t)
		case et == bestT:
			if p := ctx.Priority(t); p > bestPrio || (p == bestPrio && t.ID < frontier[best].ID) {
				best, bestPrio = i, p
			}
		}
	}
	return best
}

// customScheduler returns s unless it is nil or the default
// earliest-start policy (which stays on the heap fast path).
func customScheduler(s Scheduler) Scheduler {
	if s == nil {
		return nil
	}
	if _, isDefault := s.(EarliestStart); isDefault {
		return nil
	}
	return s
}

// SimResult is the outcome of one simulation.
type SimResult struct {
	// Makespan is the time from simulation start to the completion of
	// the last task (gaps included).
	Makespan time.Duration
	// Start is indexed by task ID and holds each task's simulated start
	// time. Its length is the graph's ID span (removed IDs stay zero).
	Start []time.Duration
	// ThreadEnd maps each thread to its final progress.
	ThreadEnd map[ThreadID]time.Duration

	// dur and gap hold the effective per-task timings of an overlay
	// simulation (empty for a plain Graph.Simulate, where the Task
	// fields are authoritative). TaskDuration/TaskGap/Finish read
	// through them so result consumers never see baseline timings for
	// an overlaid task.
	dur, gap []time.Duration

	// win holds the sliding-window state of a round-windowed simulation
	// (WithRoundWindow); nil for ordinary results. When set, Start is
	// empty and per-task reads route through the window.
	win *windowState
}

// TaskDuration returns the task duration the simulation used: the
// overlay's effective duration for an overlay simulation, the task's own
// Duration otherwise. On a windowed result the task must be within the
// retained window.
func (r *SimResult) TaskDuration(t *Task) time.Duration {
	if w := r.win; w != nil {
		if w.durRing == nil {
			return t.Duration
		}
		if t.ID < w.lo[w.retired] {
			w.retiredPanic("TaskDuration", t)
		}
		return w.durRing[t.ID%len(w.durRing)]
	}
	if len(r.dur) > t.ID {
		return r.dur[t.ID]
	}
	return t.Duration
}

// TaskGap returns the gap the simulation used for the task (see
// TaskDuration).
func (r *SimResult) TaskGap(t *Task) time.Duration {
	if w := r.win; w != nil {
		if w.gapRing == nil {
			return t.Gap
		}
		if t.ID < w.lo[w.retired] {
			w.retiredPanic("TaskGap", t)
		}
		return w.gapRing[t.ID%len(w.gapRing)]
	}
	if len(r.gap) > t.ID {
		return r.gap[t.ID]
	}
	return t.Gap
}

// Finish returns the simulated completion time of a task. On a windowed
// result the task must be within the retained window (use
// Summaries/RoundSpan for retired rounds).
func (r *SimResult) Finish(t *Task) time.Duration {
	if w := r.win; w != nil {
		start, ok := w.startOf(t.ID)
		if !ok {
			w.retiredPanic("Finish", t)
		}
		return start + r.TaskDuration(t)
	}
	return r.Start[t.ID] + r.TaskDuration(t)
}

// Reset clears the result to its zero state while keeping every backing
// array (and the ThreadEnd map) allocated, so a pooled result can be
// handed back to WithResultBuffer without re-allocating. A reset result
// reads as empty: no starts, no thread ends, no effective timings.
func (r *SimResult) Reset() {
	r.Makespan = 0
	r.Start = r.Start[:0]
	for k := range r.ThreadEnd {
		delete(r.ThreadEnd, k)
	}
	r.dur = r.dur[:0]
	r.gap = r.gap[:0]
	r.win = nil
}

// Clone returns a deep copy of the result: the copy shares no storage
// with the original, so one can keep a warm baseline result alive (for
// incremental re-simulation or later inspection) while the original's
// buffer is reused by the next simulation. Window state (rings,
// summaries) is deep-copied too.
func (r *SimResult) Clone() *SimResult {
	c := &SimResult{
		Makespan: r.Makespan,
		Start:    append([]time.Duration(nil), r.Start...),
		dur:      append([]time.Duration(nil), r.dur...),
		gap:      append([]time.Duration(nil), r.gap...),
	}
	if r.ThreadEnd != nil {
		c.ThreadEnd = make(map[ThreadID]time.Duration, len(r.ThreadEnd))
		for k, v := range r.ThreadEnd {
			c.ThreadEnd[k] = v
		}
	}
	if r.win != nil {
		w := *r.win
		w.lo = append([]int(nil), r.win.lo...)
		w.hi = append([]int(nil), r.win.hi...)
		w.left = append([]int(nil), r.win.left...)
		w.rEnd = append([]time.Duration(nil), r.win.rEnd...)
		w.rThreads = make([]map[ThreadID]time.Duration, len(r.win.rThreads))
		for i, m := range r.win.rThreads {
			if m == nil {
				continue
			}
			cm := make(map[ThreadID]time.Duration, len(m))
			for k, v := range m {
				cm[k] = v
			}
			w.rThreads[i] = cm
		}
		w.ring = append([]time.Duration(nil), r.win.ring...)
		w.durRing = append([]time.Duration(nil), r.win.durRing...)
		w.gapRing = append([]time.Duration(nil), r.win.gapRing...)
		w.summaries = make([]RoundSummary, len(r.win.summaries))
		for i, s := range r.win.summaries {
			cs := s
			if s.ThreadEnd != nil {
				cs.ThreadEnd = make(map[ThreadID]time.Duration, len(s.ThreadEnd))
				for k, v := range s.ThreadEnd {
					cs.ThreadEnd[k] = v
				}
			}
			w.summaries[i] = cs
		}
		c.win = &w
	}
	return c
}

// newResult readies result storage for an ID span of n, reusing buf's
// backing arrays when one was supplied via WithResultBuffer.
func newResult(buf *SimResult, n, threads int) *SimResult {
	if buf == nil {
		return &SimResult{
			Start:     make([]time.Duration, n),
			ThreadEnd: make(map[ThreadID]time.Duration, threads),
		}
	}
	buf.Makespan = 0
	if cap(buf.Start) < n {
		buf.Start = make([]time.Duration, n)
	} else {
		buf.Start = buf.Start[:n]
		for i := range buf.Start {
			buf.Start[i] = 0
		}
	}
	if buf.ThreadEnd == nil {
		buf.ThreadEnd = make(map[ThreadID]time.Duration, threads)
	} else {
		for k := range buf.ThreadEnd {
			delete(buf.ThreadEnd, k)
		}
	}
	// Keep the capacity, drop the content: a plain simulation must not
	// inherit a previous overlay simulation's timings (or a previous
	// windowed simulation's window).
	buf.dur = buf.dur[:0]
	buf.gap = buf.gap[:0]
	buf.win = nil
	return buf
}

// SimScratch holds the reusable per-simulation working set: the
// reference-count and earliest-start arrays plus the frontier storage.
// A scratch may be reused across any number of sequential simulations of
// graphs of any size (it grows as needed), which removes almost all
// per-simulation allocation — the property the sweep worker pool relies
// on. A scratch must not be shared by concurrent simulations.
type SimScratch struct {
	ref        []int32
	earliest   []time.Duration
	heap       []heapEntry
	frontier   []*Task
	prio       []int           // per-ID priorities the heap tie-breaks on
	threadEnds []time.Duration // per-thread-ordinal progress
	// effDur and effGap hold per-ID timings the retained result does
	// not carry: a plain Graph simulation's (read from the tasks) and
	// a *windowed* overlay/patch simulation's (so the retained result
	// stays O(window) while timing reads stay O(1)).
	effDur, effGap []time.Duration
}

// scratchPool recycles the working sets of simulations not handed one
// through WithScratch, so a one-shot Simulate allocates its result
// rather than O(tasks) bookkeeping. A borrowed scratch is returned when
// the call ends: nothing a SimResult retains points into it.
var scratchPool = sync.Pool{New: func() any { return new(SimScratch) }}

// NewSimScratch returns an empty scratch, ready for WithScratch.
func NewSimScratch() *SimScratch { return &SimScratch{} }

// ensure sizes the arrays for an ID span of n.
func (s *SimScratch) ensure(n int) {
	if cap(s.ref) < n {
		s.ref = make([]int32, n)
		s.earliest = make([]time.Duration, n)
	}
	s.ref = s.ref[:n]
	s.earliest = s.earliest[:n]
	s.heap = s.heap[:0]
	s.frontier = s.frontier[:0]
}

// heapEntry is one frontier task ID with the effective-start key it was
// inserted (or re-inserted) with. Keys only grow as the simulation
// progresses, so a popped entry whose key is stale is re-pushed with its
// current effective start (lazy update); an entry whose key is current is
// the true minimum under the (start, -priority, ID) order — exactly the
// task EarliestStart's linear scan would have picked. The entry carries
// the effective priority so overlay and patch simulations tie-break on
// overlaid priorities without touching the shared baseline tasks, and
// the comparison never dereferences a task.
type heapEntry struct {
	key  time.Duration
	prio int
	id   int32
}

func heapLess(a, b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

func heapPush(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []heapEntry) (heapEntry, []heapEntry) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && heapLess(h[l], h[least]) {
			least = l
		}
		if r < n && heapLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top, h
}

// simOptions collects Simulate options.
type simOptions struct {
	scheduler Scheduler
	scratch   *SimScratch
	result    *SimResult
	// ctx, when non-nil, is checked on entry and every
	// cancelCheckInterval dispatches; a canceled or expired context
	// aborts the simulation with a typed ErrCanceled /
	// ErrDeadlineExceeded error.
	ctx context.Context
	// execOrder, when non-nil, receives every task ID in execution
	// (pop) order — a valid topological order of the effective edge set.
	// IncrementalSim records the warm schedule through it.
	execOrder *[]int32
	// window, when positive, enables round-windowed simulation
	// (WithRoundWindow): retired rounds keep only a RoundSummary while
	// a sliding window of that many rounds keeps full per-task starts.
	window int
}

// cancelCheckInterval is how many task dispatches pass between context
// polls — the cooperative-cancellation granularity of every simulate
// path. At ~10⁷ dispatches/s a poll every 1024 tasks bounds the
// cancellation latency to well under a millisecond while keeping the
// hot loop's overhead unmeasurable (one predictable nil check per
// dispatch when no context is set).
const cancelCheckInterval = 1024

// ctxCanceled reports the context's error if it is non-nil and done —
// the entry check every simulate path runs before touching scratch, so
// a pre-canceled context returns promptly and typed.
func ctxCanceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return ContextError(cerr)
	}
	return nil
}

// withExecOrder records the execution order of a default-policy
// simulation into ord (appending; the caller truncates). Internal:
// only the incremental simulator's warm build uses it.
func withExecOrder(ord *[]int32) SimOption {
	return func(o *simOptions) { o.execOrder = ord }
}

// SimOption configures Simulate.
type SimOption func(*simOptions)

// WithScheduler overrides the default earliest-start scheduling policy
// (used, e.g., to model P3's priority queues or vDNN's prefetch policy).
func WithScheduler(s Scheduler) SimOption {
	return func(o *simOptions) { o.scheduler = s }
}

// WithContext makes the simulation cooperatively cancellable: the
// context is checked on entry and every cancelCheckInterval (1024)
// task dispatches, on every simulate path (Graph, Overlay, Patch,
// scheduled, incremental). A canceled context aborts with an error
// wrapping ErrCanceled; an expired deadline wraps ErrDeadlineExceeded —
// both also match the originating context error under errors.Is. An
// aborted simulation leaves the caller's scratch and result buffer
// valid for reuse (their contents are unspecified).
func WithContext(ctx context.Context) SimOption {
	return func(o *simOptions) { o.ctx = ctx }
}

// WithScratch reuses a caller-owned working set across simulations,
// eliminating per-simulation allocation of the frontier and bookkeeping
// arrays. The scratch must not be used by two simulations concurrently.
func WithScratch(s *SimScratch) SimOption {
	return func(o *simOptions) { o.scratch = s }
}

// WithResultBuffer fills (and returns) the caller-owned SimResult
// instead of allocating a fresh one, reusing its backing arrays.
//
// Discard semantics: the previous contents of buf are discarded
// unconditionally — Makespan is zeroed, Start is resized and cleared to
// the new view's ID span, ThreadEnd's entries are deleted (the map
// itself is kept), and any effective timings from an earlier overlay
// simulation are dropped so a plain Graph simulation never inherits
// them. Nothing of the earlier result survives, so a caller that reuses
// one buffer across simulations must be fully done with the earlier
// result — copy what it needs first (SimResult.Clone) or pool distinct
// buffers (SimResult.Reset). The sweep worker pool relies on this to
// make steady-state scenario evaluation allocation-free when results
// are not retained.
func WithResultBuffer(buf *SimResult) SimOption {
	return func(o *simOptions) { o.result = buf }
}

// SchedulerOf resolves the custom scheduling policy configured by the
// options, or nil when they select the default earliest-start policy.
// Dispatch layers (the sweep's tier selection) use it to decide whether
// a scenario is eligible for schedules that only model the default
// policy, such as the incremental tier.
func SchedulerOf(opts ...SimOption) Scheduler {
	var o simOptions
	for _, fn := range opts {
		fn(&o)
	}
	return customScheduler(o.scheduler)
}

// Simulate executes Algorithm 1 of the paper: a frontier-based replay that
// dispatches each task to its execution thread once its dependencies
// complete, advancing per-thread progress by duration plus gap, and
// propagating earliest-start times along dependency edges.
//
// Under the default earliest-start policy the frontier is a binary heap
// of task IDs with lazily updated keys, run over the graph's memoized
// flat view — the same loop Overlay.Simulate runs. A custom Scheduler
// sees the frontier as a plain slice, preserving the overridable
// schedule() contract.
func (g *Graph) Simulate(opts ...SimOption) (*SimResult, error) {
	o := simOptions{}
	for _, fn := range opts {
		fn(&o)
	}
	if err := ctxCanceled(o.ctx); err != nil {
		return nil, err
	}
	scratch := o.scratch
	if scratch == nil {
		scratch = scratchPool.Get().(*SimScratch)
		defer scratchPool.Put(scratch)
	}
	n := len(g.tasks)
	scratch.ensure(n)

	resN := n
	if o.window > 0 {
		resN = 0 // windowed: starts live in the window rings, not Start
	}
	res := newResult(o.result, resN, len(g.threads))
	if o.window > 0 {
		win, err := newWindowState(g, o.window, false)
		if err != nil {
			return nil, err
		}
		res.win = win
	}
	if s := customScheduler(o.scheduler); s != nil {
		return simulateScheduled(g, s, scratch, res, o.ctx)
	}
	// The kernel reads timings from flat per-ID arrays; a plain graph's
	// live in its tasks, so they are gathered into scratch (the result
	// keeps empty effective timings, the Task fields being
	// authoritative).
	scratch.effDur = growDurations(scratch.effDur, n)
	scratch.effGap = growDurations(scratch.effGap, n)
	scratch.prio = growInts(scratch.prio, n)
	dur, gap, prio := scratch.effDur, scratch.effGap, scratch.prio
	for id, t := range g.tasks {
		if t != nil {
			dur[id], gap[id], prio[id] = t.Duration, t.Gap, t.Priority
		}
	}
	return simulateFlat(g.flat(), g.tasks, g.live, dur, gap, prio, scratch, res, &o)
}

// untouched marks a thread no task has been dispatched to yet, so the
// result's ThreadEnd gets exactly one entry per thread that ran.
const untouched = time.Duration(math.MinInt64)

// simulateFlat is the default-policy Algorithm-1 loop every Graph and
// Overlay simulation runs: a lazy-key binary heap of task IDs over the
// flat view fv, with per-ID effective timings in dur, gap and prio.
// tasks is the ID-indexed task table (read only to record a windowed
// result and to report a stall) and live its non-nil count. The caller
// has run the entry cancellation check, sized scratch for len(tasks)
// and built res (with its window, if any).
func simulateFlat(fv *flatView, tasks []*Task, live int, dur, gap []time.Duration, prio []int, scratch *SimScratch, res *SimResult, o *simOptions) (*SimResult, error) {
	ref, earliest := scratch.ref, scratch.earliest
	copy(ref, fv.indeg)
	clear(earliest)
	threadOf := fv.threadOf
	tEnds := growDurations(scratch.threadEnds, len(fv.threadIDs))
	scratch.threadEnds = tEnds
	for i := range tEnds {
		tEnds[i] = untouched
	}
	h := scratch.heap
	for _, id := range fv.roots {
		h = heapPush(h, heapEntry{0, prio[id], id})
	}
	executed := 0
	for len(h) > 0 {
		var e heapEntry
		e, h = heapPop(h)
		u := e.id
		ti := threadOf[u]
		start := earliest[u]
		if p := tEnds[ti]; p > start {
			start = p
		}
		if start > e.key {
			// Stale key: thread progress moved past the insertion-time
			// estimate. Re-insert with the current effective start.
			h = heapPush(h, heapEntry{start, e.prio, u})
			continue
		}
		end := start + dur[u] + gap[u]
		if res.win == nil {
			res.Start[u] = start
		} else {
			res.win.record(tasks[u], start, dur[u], gap[u])
		}
		tEnds[ti] = end
		if end > res.Makespan {
			res.Makespan = end
		}
		executed++
		if o.ctx != nil && executed%cancelCheckInterval == 0 {
			if cerr := o.ctx.Err(); cerr != nil {
				scratch.heap = h[:0]
				return nil, ContextError(cerr)
			}
		}
		if o.execOrder != nil {
			*o.execOrder = append(*o.execOrder, u)
		}
		for _, c := range fv.children(u) {
			if end > earliest[c] {
				earliest[c] = end
			}
			ref[c]--
			if ref[c] == 0 {
				key := earliest[c]
				if p := tEnds[threadOf[c]]; p > key {
					key = p
				}
				h = heapPush(h, heapEntry{key, prio[c], c})
			}
		}
	}
	scratch.heap = h[:0]
	if executed != live {
		// Frontier starvation: the effective graph cannot be fully
		// ordered. Unexecuted tasks are exactly those whose reference
		// count never reached zero.
		var blocked []*Task
		for id, t := range tasks {
			if t != nil && ref[id] > 0 {
				blocked = append(blocked, t)
			}
		}
		return nil, newStallError(executed, live, blocked)
	}
	for i, end := range tEnds {
		if end != untouched {
			res.ThreadEnd[fv.threadIDs[i]] = end
		}
	}
	return res, nil
}

// simulateScheduled is the slice-frontier path for custom schedulers,
// generic over the task view: the scheduler inspects every frontier
// task through the SchedContext, which reads the view's effective
// attributes — so the same policy runs directly over a *Graph, an
// *Overlay or a structural *Patch, with zero clones and bit-identical
// results to materializing the view and simulating that. The caller has
// sized scratch (scratch.ensure) and built res for the view's ID span;
// the scratch's frontier storage is reset on every exit path, error or
// not, so a reused SimScratch never leaks stale frontier entries into
// the next simulation. A non-nil ctx is polled every
// cancelCheckInterval dispatches (the caller has run the entry check).
func simulateScheduled(v schedView, sched Scheduler, scratch *SimScratch, res *SimResult, ctx context.Context) (*SimResult, error) {
	ref, earliest := scratch.ref, scratch.earliest
	for i := range ref {
		ref[i] = 0
		earliest[i] = 0
	}
	// Reference counts over the effective edge set, by one pass of
	// live-child iteration (cheaper than enumerating parents on a patch).
	// incRef is hoisted so the pass allocates one closure, not one per
	// task.
	live := 0
	incRef := func(c *Task) { ref[c.ID]++ }
	v.eachTask(func(t *Task) {
		live++
		v.eachChild(t, incRef)
	})
	frontier := scratch.frontier
	v.eachTask(func(t *Task) {
		if ref[t.ID] == 0 {
			frontier = append(frontier, t)
		}
	})
	sctx := &SchedContext{view: v, earliest: earliest, threadEnd: res.ThreadEnd}
	executed := 0
	// One relax closure for the whole run (a per-step literal would
	// allocate once per executed task); end is threaded through a local.
	var end time.Duration
	relax := func(c *Task) {
		if end > earliest[c.ID] {
			earliest[c.ID] = end
		}
		ref[c.ID]--
		if ref[c.ID] == 0 {
			frontier = append(frontier, c)
		}
	}
	for len(frontier) > 0 {
		i := sched.Pick(frontier, sctx)
		if i < 0 || i >= len(frontier) {
			scratch.frontier = frontier[:0]
			return nil, fmt.Errorf("core: scheduler picked frontier index %d of %d (Pick must return an index into the frontier)", i, len(frontier))
		}
		u := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		start := sctx.EffStart(u)
		d, gp := v.Duration(u), v.Gap(u)
		end = start + d + gp
		if res.win == nil {
			res.Start[u.ID] = start
		} else {
			res.win.record(u, start, d, gp)
		}
		res.ThreadEnd[u.Thread] = end
		if end > res.Makespan {
			res.Makespan = end
		}
		executed++
		if ctx != nil && executed%cancelCheckInterval == 0 {
			if cerr := ctx.Err(); cerr != nil {
				scratch.frontier = frontier[:0]
				return nil, ContextError(cerr)
			}
		}
		v.eachChild(u, relax)
	}
	scratch.frontier = frontier[:0]
	if executed != live {
		// Frontier starvation: collect the tasks whose reference count
		// never reached zero — the cycle members and their downstream.
		var blocked []*Task
		v.eachTask(func(t *Task) {
			if ref[t.ID] > 0 {
				blocked = append(blocked, t)
			}
		})
		return nil, newStallError(executed, live, blocked)
	}
	return res, nil
}

// PredictIteration simulates the graph and returns the makespan — the
// predicted iteration time. It is a convenience wrapper for the common
// whole-graph question.
func (g *Graph) PredictIteration(opts ...SimOption) (time.Duration, error) {
	res, err := g.Simulate(opts...)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
