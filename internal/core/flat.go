package core

// flatView is the structure-only flat form of a Graph the simulation
// kernels run over: child adjacency as int32 CSR, per-task in-degree
// and the root list in ID order, and the task → thread-ordinal layout.
// It holds no timings — Task.Duration/Gap/Priority are exported and may
// be written in place, so timing arrays are filled per simulation (or
// per overlay binding) instead.
//
// A view is immutable once built and memoized on its graph (see
// Graph.flat), so every overlay, patch and pool worker bound to one
// baseline shares a single copy.
type flatView struct {
	// childOff[id]..childOff[id+1] delimits task id's children in
	// childIDs, in the task's own child order. Removed IDs have an
	// empty range.
	childOff []int32
	childIDs []int32
	// indeg is each live task's parent count (0 for removed IDs);
	// roots lists the live tasks with no parents, in ID order.
	indeg []int32
	roots []int32
	// threadOf maps a task ID to its thread's ordinal in threadIDs (-1
	// for removed IDs); ordinals follow first appearance in ID order.
	threadOf  []int32
	threadIDs []ThreadID
}

// flat returns the graph's memoized flat view, building it on first
// use. Publication is atomic, so goroutines sharing an immutable graph
// may call it concurrently; concurrent first calls may build
// duplicate-but-identical views, of which one wins — the contract
// LayerPhaseIndex has.
func (g *Graph) flat() *flatView {
	if v := g.flatIdx.Load(); v != nil {
		return v
	}
	v := buildFlatView(g)
	g.flatIdx.Store(v)
	return v
}

// invalidateFlat drops the memoized flat view. Every structural
// mutator (edge add/remove, task allocation, Remove) calls it; the
// load-before-store keeps the common already-empty case to a plain
// read during graph construction.
func (g *Graph) invalidateFlat() {
	if g.flatIdx.Load() != nil {
		g.flatIdx.Store(nil)
	}
}

func buildFlatView(g *Graph) *flatView {
	n := len(g.tasks)
	v := &flatView{
		childOff: make([]int32, n+1),
		childIDs: make([]int32, 0, g.edges),
		indeg:    make([]int32, n),
		threadOf: make([]int32, n),
	}
	ord := make(map[ThreadID]int32, len(g.threads))
	for id, t := range g.tasks {
		v.childOff[id] = int32(len(v.childIDs))
		if t == nil {
			v.threadOf[id] = -1
			continue
		}
		for _, c := range t.children {
			v.childIDs = append(v.childIDs, int32(c.ID))
		}
		v.indeg[id] = int32(len(t.parents))
		if len(t.parents) == 0 {
			v.roots = append(v.roots, int32(id))
		}
		ti, ok := ord[t.Thread]
		if !ok {
			ti = int32(len(v.threadIDs))
			ord[t.Thread] = ti
			v.threadIDs = append(v.threadIDs, t.Thread)
		}
		v.threadOf[id] = ti
	}
	v.childOff[n] = int32(len(v.childIDs))
	return v
}

// children returns task id's child IDs.
func (v *flatView) children(id int32) []int32 {
	return v.childIDs[v.childOff[id]:v.childOff[id+1]]
}
